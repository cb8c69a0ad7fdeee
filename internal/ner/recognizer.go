package ner

import (
	"hash/fnv"
	"strconv"
	"unicode"

	"etap/internal/textproc"
)

// Recognizer annotates token streams with the 13 ETAP entity categories.
// A zero-value Recognizer is not usable; construct with NewRecognizer.
type Recognizer struct {
	gaz *gazetteers

	// missRate, when > 0, deterministically drops that fraction of
	// recognized entities (keyed by a hash of the surface text and seed).
	// It models the recognition errors the paper's conclusion warns
	// about ("wrong annotation of company and person names leads to
	// incorrect trigger events") and is used by robustness tests and
	// ablation benches.
	missRate float64
	seed     uint64
}

// Option configures a Recognizer.
type Option func(*Recognizer)

// WithMissRate makes the recognizer deterministically miss the given
// fraction of entities (0 <= rate < 1). The choice of which entities are
// missed is a pure function of the surface text and seed, so corpora are
// annotated reproducibly.
func WithMissRate(rate float64, seed int64) Option {
	return func(r *Recognizer) {
		r.missRate = rate
		r.seed = uint64(seed)
	}
}

// NewRecognizer builds a recognizer over the built-in gazetteers.
func NewRecognizer(opts ...Option) *Recognizer {
	r := &Recognizer{gaz: defaultGazetteers()}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Recognize scans tokens left to right and returns the non-overlapping
// entities found, in token order. At each position the highest-priority,
// longest match wins; numeric patterns outrank gazetteer lookups so that
// "$5 million" is CURRENCY rather than a CNT followed by words. Without
// the source text, every multi-token entity's text is joined afresh.
func (r *Recognizer) Recognize(tokens []textproc.Token) []Entity {
	return r.AppendEntities(nil, "", tokens, textproc.Lowered(tokens))
}

// RecognizeLowered is Recognize for a caller that has already
// lower-cased every token, as textproc.Lowered does: lowered[i] must be
// strings.ToLower(tokens[i].Text).
func (r *Recognizer) RecognizeLowered(tokens []textproc.Token, lowered []string) []Entity {
	return r.AppendEntities(nil, "", tokens, lowered)
}

// AppendEntities appends the entities Recognize finds in tokens to dst
// and returns the extended slice, so a caller that reuses one buffer
// recognizes without allocating for it. lowered[i] must be
// strings.ToLower(tokens[i].Text). text is the source the tokens were
// cut from, or "": an entity whose tokens are separated by single
// spaces there takes its Text as a slice of text instead of a joined
// copy. The annotator lower-cases each snippet's tokens once and shares
// them with the part-of-speech tagger.
func (r *Recognizer) AppendEntities(dst []Entity, text string, tokens []textproc.Token, lowered []string) []Entity {
	i := 0
	for i < len(tokens) {
		cat, span := r.matchAt(tokens, lowered, i)
		if span == 0 {
			i++
			continue
		}
		e := Entity{
			Category:   cat,
			Text:       entityText(text, tokens[i:i+span]),
			TokenStart: i,
			TokenEnd:   i + span,
			Start:      tokens[i].Start,
			End:        tokens[i+span-1].End,
		}
		if !r.dropped(e) {
			dst = append(dst, e)
		}
		i += span
	}
	return dst
}

// RecognizeText tokenizes and recognizes in one call.
func (r *Recognizer) RecognizeText(text string) []Entity {
	tokens := textproc.Tokenize(text)
	return r.AppendEntities(nil, text, tokens, textproc.Lowered(tokens))
}

// dropped implements deterministic error injection.
func (r *Recognizer) dropped(e Entity) bool {
	if r.missRate <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(e.Text))
	h.Write([]byte(e.Category))
	var b [8]byte
	s := r.seed
	for i := 0; i < 8; i++ {
		b[i] = byte(s >> (8 * i))
	}
	h.Write(b[:])
	return float64(h.Sum64()%10000) < r.missRate*10000
}

// matchAt tries every matcher at position i, highest priority first.
// The gazetteer map is probed once for the word at i; matchers look
// further ahead only after cheaper tests pass.
func (r *Recognizer) matchAt(tokens []textproc.Token, lowered []string, i int) (Category, int) {
	b := r.gaz.words[lowered[i]]
	if span := r.matchCurrency(tokens, lowered, i); span > 0 {
		return CURRENCY, span
	}
	if span := r.matchPercent(tokens, lowered, i); span > 0 {
		return PRCNT, span
	}
	if span := r.matchLength(tokens, lowered, i); span > 0 {
		return LNGTH, span
	}
	if span := r.matchTime(tokens, lowered, i); span > 0 {
		return TIM, span
	}
	if span := r.matchPeriod(tokens, lowered, i, b); span > 0 {
		return PERIOD, span
	}
	if span := r.matchYear(tokens, i); span > 0 {
		return YEAR, span
	}
	if span := r.matchCount(tokens, i); span > 0 {
		return CNT, span
	}
	if b&startsDesignation != 0 {
		if span := r.gaz.designations.match(lowered, i); span > 0 {
			return DESIG, span
		}
	}
	if span := r.matchOrg(tokens, lowered, i, b); span > 0 {
		return ORG, span
	}
	if b&startsProduct != 0 {
		if span := r.gaz.products.match(lowered, i); span > 0 && isCap(tokens[i].Text) {
			return PROD, span
		}
	}
	if b&startsObject != 0 {
		if span := r.gaz.objects.match(lowered, i); span > 0 && isCap(tokens[i].Text) {
			return OBJ, span
		}
	}
	if span := r.matchPerson(tokens, lowered, i, b); span > 0 {
		return PRSN, span
	}
	if b&startsPlace != 0 {
		if span := r.gaz.places.match(lowered, i); span > 0 && isCap(tokens[i].Text) {
			return PLC, span
		}
	}
	return "", 0
}

// --- numeric patterns -------------------------------------------------

func isCurrencySymbol(s string) bool {
	switch s {
	case "$", "€", "£", "¥":
		return true
	}
	return false
}

// matchCurrency matches "$5", "$5.2 million", "5 million dollars",
// "160 million USD".
func (r *Recognizer) matchCurrency(tokens []textproc.Token, lowered []string, i int) int {
	n := len(tokens)
	// Symbol-led: $ NUMBER [magnitude]
	if isCurrencySymbol(tokens[i].Text) {
		if i+1 < n && tokens[i+1].IsNumber() {
			span := 2
			if i+2 < n && r.gaz.words[lowered[i+2]]&magnitude != 0 {
				span = 3
			}
			return span
		}
		return 0
	}
	// Number-led: NUMBER [magnitude] currencyWord
	if tokens[i].IsNumber() {
		j := i + 1
		if j < n && r.gaz.words[lowered[j]]&magnitude != 0 {
			j++
		}
		if j < n && r.gaz.words[lowered[j]]&currencyWord != 0 {
			return j - i + 1
		}
	}
	return 0
}

// matchPercent matches "10%", "10 percent", "3.5 percentage points".
func (r *Recognizer) matchPercent(tokens []textproc.Token, lowered []string, i int) int {
	if !tokens[i].IsNumber() {
		return 0
	}
	n := len(tokens)
	if i+1 < n {
		switch {
		case tokens[i+1].Text == "%":
			return 2
		case lowered[i+1] == "percent" || lowered[i+1] == "pct":
			return 2
		case lowered[i+1] == "percentage" && i+2 < n &&
			(lowered[i+2] == "points" || lowered[i+2] == "point"):
			return 3
		}
	}
	return 0
}

// matchLength matches "500 square feet", "2 terabytes".
func (r *Recognizer) matchLength(tokens []textproc.Token, lowered []string, i int) int {
	if !tokens[i].IsNumber() {
		return 0
	}
	if i+1 >= len(tokens) {
		return 0
	}
	if r.gaz.words[lowered[i+1]]&startsLengthUnit == 0 {
		return 0
	}
	if span := r.gaz.lengthUnits.match(lowered, i+1); span > 0 {
		return 1 + span
	}
	return 0
}

// matchTime matches "3:30", "3:30 pm", "9 am", "9 a.m".
func (r *Recognizer) matchTime(tokens []textproc.Token, lowered []string, i int) int {
	n := len(tokens)
	if !tokens[i].IsNumber() {
		return 0
	}
	// NUMBER : NUMBER [am|pm]
	if i+2 < n && tokens[i+1].Text == ":" && tokens[i+2].IsNumber() {
		span := 3
		if i+3 < n && isMeridiem(lowered[i+3]) {
			span++
		}
		return span
	}
	// NUMBER am|pm
	if i+1 < n && isMeridiem(lowered[i+1]) {
		return 2
	}
	return 0
}

func isMeridiem(w string) bool {
	switch w {
	case "am", "pm", "a.m", "p.m", "a.m.", "p.m.":
		return true
	}
	return false
}

// matchPeriod matches calendar expressions: "January 12, 2004",
// "January 2004", "January", "Monday", "Q4", "fourth quarter",
// "first half", "last year", "next quarter", "previous quarter".
func (r *Recognizer) matchPeriod(tokens []textproc.Token, lowered []string, i int, b wordBits) int {
	n := len(tokens)
	w := lowered[i]

	if b&month != 0 && isCap(tokens[i].Text) {
		span := 1
		j := i + 1
		// optional day number
		if j < n && tokens[j].IsNumber() && len(tokens[j].Text) <= 2 {
			span++
			j++
			// optional comma + year
			if j+1 < n && tokens[j].Text == "," && isYearNumber(tokens[j+1]) {
				span += 2
				j += 2
			}
		}
		// optional year directly
		if j < n && isYearNumber(tokens[j]) {
			span++
		}
		return span
	}
	if b&weekday != 0 && isCap(tokens[i].Text) {
		return 1
	}
	// Q1..Q4, optionally followed by a year ("Q4 2004").
	if len(w) == 2 && w[0] == 'q' && w[1] >= '1' && w[1] <= '4' {
		if i+1 < n && isYearNumber(tokens[i+1]) {
			return 2
		}
		return 1
	}
	// ordinal quarter/half: "fourth quarter", "first half"
	if isOrdinal(w) && i+1 < n && (lowered[i+1] == "quarter" || lowered[i+1] == "half") {
		return 2
	}
	// relative periods: "last year", "this quarter", "next month",
	// "previous quarter" — PERIOD expressions the ranking component's
	// time resolver consumes.
	if (w == "last" || w == "next" || w == "previous" || w == "this") && i+1 < n {
		switch lowered[i+1] {
		case "year", "quarter", "month", "week":
			return 2
		}
	}
	return 0
}

func isOrdinal(w string) bool {
	switch w {
	case "first", "second", "third", "fourth":
		return true
	}
	return false
}

func isYearNumber(t textproc.Token) bool {
	if !t.IsNumber() || len(t.Text) != 4 {
		return false
	}
	y, err := strconv.Atoi(t.Text)
	return err == nil && y >= 1900 && y <= 2099
}

// matchYear matches a sole 4-digit year.
func (r *Recognizer) matchYear(tokens []textproc.Token, i int) int {
	if isYearNumber(tokens[i]) {
		return 1
	}
	return 0
}

// matchCount matches any remaining bare number as a count figure.
func (r *Recognizer) matchCount(tokens []textproc.Token, i int) int {
	if tokens[i].IsNumber() {
		return 1
	}
	return 0
}

// --- name patterns ----------------------------------------------------

// matchOrg matches organizations:
//  1. known full org names ("IBM", "Daksh");
//  2. one or two capitalized tokens followed by a corporate suffix
//     ("Brellvane Inc", "Silverlake Capital Group" — suffix run absorbed);
//  3. a bare gazetteer company core ("Halcyon").
func (r *Recognizer) matchOrg(tokens []textproc.Token, lowered []string, i int, b wordBits) int {
	n := len(tokens)
	if b&knownOrg != 0 && isCap(tokens[i].Text) {
		return 1
	}
	if !isCap(tokens[i].Text) || !tokens[i].IsWord() {
		return 0
	}
	// Sentence-initial function words are capitalized but never part of
	// an organization name.
	switch lowered[i] {
	case "the", "a", "an", "this", "that", "these", "those", "its",
		"his", "her", "their", "our", "your", "my":
		return 0
	}
	// Capitalized run followed by suffix token(s).
	j := i
	for j < n && tokens[j].IsWord() && isCap(tokens[j].Text) && j-i < 3 {
		if j > i && r.gaz.words[lowered[j]]&orgSuffix != 0 {
			// absorb a second suffix ("Holdings Ltd")
			k := j + 1
			if k < n && tokens[k].IsWord() && r.gaz.words[lowered[k]]&orgSuffix != 0 {
				k++
			}
			return k - i
		}
		j++
	}
	if j < n && j > i && j-i <= 3 && tokens[j].IsWord() && r.gaz.words[lowered[j]]&orgSuffix != 0 {
		return j - i + 1
	}
	// Bare known core.
	if b&companyCore != 0 {
		return 1
	}
	return 0
}

// matchPerson matches person names:
//  1. honorific + capitalized name(s): "Mr. Andersen", "Dr. Jane Smith";
//  2. FirstName [Initial.] LastName;
//  3. FirstName + unknown capitalized token (recognizer generalization);
//  4. bare FirstName LastName pairs from the gazetteer.
func (r *Recognizer) matchPerson(tokens []textproc.Token, lowered []string, i int, b wordBits) int {
	n := len(tokens)
	if isHonorific(lowered[i]) && isCap(tokens[i].Text) {
		j := i + 1
		// optional period after the honorific
		if j < n && tokens[j].Text == "." {
			j++
		}
		start := j
		for j < n && j-start < 3 && tokens[j].IsWord() && isCap(tokens[j].Text) {
			j++
			// skip initial periods: "Mr. J. Smith"
			if j < n && tokens[j].Text == "." && j-1 >= start && len(tokens[j-1].Text) == 1 {
				j++
			}
		}
		if j > start {
			return j - i
		}
		return 0
	}

	if b&firstName == 0 || !isCap(tokens[i].Text) {
		return 0
	}
	j := i + 1
	// optional middle initial: "James R. Smith"
	if j+1 < n && tokens[j].IsWord() && len(tokens[j].Text) == 1 &&
		isCap(tokens[j].Text) && tokens[j+1].Text == "." {
		j += 2
	}
	if j < n && tokens[j].IsWord() && isCap(tokens[j].Text) {
		// Known surname, or any unknown capitalized token that is not
		// itself an org/place/etc. (generalization with realistic
		// over-triggering).
		if lb := r.gaz.words[lowered[j]]; lb&lastName != 0 ||
			lb&(knownOrg|companyCore|orgSuffix|month) == 0 {
			return j - i + 1
		}
	}
	return 0
}

func isHonorific(w string) bool {
	switch w {
	case "mr", "mrs", "ms", "dr", "prof":
		return true
	}
	return false
}

func isCap(s string) bool {
	for _, r := range s {
		return unicode.IsUpper(r)
	}
	return false
}
