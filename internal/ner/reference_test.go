package ner

// The recognizer as it was before it read each token's word-table
// entry, kept apart from a ref prefix on every name as the reference
// oracle Recognize, RecognizeText and AppendEntities must match: it
// lower-cases every token itself, keeps its own map of each word's
// gazetteer roles and probes it, and its phrase tables, by lower-cased
// string at each position. Keep it simple and slow; do not optimize it.

import (
	"strings"
	"unicode"

	"etap/internal/gazetteer"
	"etap/internal/textproc"
)

// refRecognizer is the reference recognizer. It injects misses through
// the Recognizer it wraps, whose dropped did not change.
type refRecognizer struct {
	*Recognizer
	gaz *refGazetteers
}

func newRefRecognizer(r *Recognizer) *refRecognizer {
	return &refRecognizer{Recognizer: r, gaz: refDefaultGazetteers()}
}

// recognize is AppendEntities as it was, lower-casing tokens itself.
func (r *refRecognizer) recognize(text string, tokens []textproc.Token) []Entity {
	lowered := make([]string, len(tokens))
	for i, t := range tokens {
		lowered[i] = strings.ToLower(t.Text)
	}
	var dst []Entity
	i := 0
	for i < len(tokens) {
		cat, span := r.refMatchAt(tokens, lowered, i)
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

// refPhraseTable indexes multi-token gazetteer phrases by their lower-cased
// first token. Matching tries the longest phrase first.
type refPhraseTable struct {
	// byFirst maps the first token (lower-cased) to candidate phrases,
	// each a slice of lower-cased tokens, sorted longest first.
	byFirst map[string][][]string
	cat     Category
}

func refNewPhraseTable(cat Category, phrases []string) *refPhraseTable {
	t := &refPhraseTable{byFirst: make(map[string][][]string), cat: cat}
	for _, p := range phrases {
		toks := strings.Fields(strings.ToLower(p))
		if len(toks) == 0 {
			continue
		}
		t.byFirst[toks[0]] = append(t.byFirst[toks[0]], toks)
	}
	for k, list := range t.byFirst {
		// longest first (stable insertion order breaks ties)
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && len(list[j]) > len(list[j-1]); j-- {
				list[j], list[j-1] = list[j-1], list[j]
			}
		}
		t.byFirst[k] = list
	}
	return t
}

// match reports the number of tokens matched starting at lowered[i]
// (0 if none). lowered holds the lower-cased surface forms.
func (t *refPhraseTable) match(lowered []string, i int) int {
	cands, ok := t.byFirst[lowered[i]]
	if !ok {
		return 0
	}
outer:
	for _, cand := range cands {
		if i+len(cand) > len(lowered) {
			continue
		}
		for j := 1; j < len(cand); j++ {
			if lowered[i+j] != cand[j] {
				continue outer
			}
		}
		return len(cand)
	}
	return 0
}

// refWordBits is the set of gazetteer roles a lower-cased word plays: one
// bit per word set, plus one bit per phrase table with a phrase that
// starts with the word.
type refWordBits uint16

const (
	refKnownOrg          refWordBits = 1 << iota // full org name ("ibm")
	refCompanyCore                               // single-token company core
	refOrgSuffix                                 // corporate suffix ("inc")
	refFirstName                                 // given name
	refLastName                                  // surname
	refMonth                                     // refMonth name
	refWeekday                                   // refWeekday name
	refMagnitude                                 // "million", "billion", ...
	refCurrencyWord                              // "dollars", "euros", ...
	refStartsDesignation                         // first word of a designation phrase
	refStartsPlace                               // first word of a place phrase
	refStartsProduct                             // first word of a product phrase
	refStartsObject                              // first word of an object phrase
	refStartsLengthUnit                          // first word of a length-unit phrase
)

// refMagnitudes and refCurrencyWords are the recognizer's own word lists for
// currency amounts ("5 million dollars"); they feed the refMagnitude and
// refCurrencyWord bits.
var refMagnitudes = []string{"million", "billion", "trillion", "thousand", "crore", "lakh"}

var refCurrencyWords = []string{
	"dollars", "dollar", "euros", "euro", "pounds", "rupees", "yen", "usd", "cents",
}

// refGazetteers bundles every lookup structure the recognizer needs.
type refGazetteers struct {
	designations *refPhraseTable
	places       *refPhraseTable
	products     *refPhraseTable
	objects      *refPhraseTable
	lengthUnits  *refPhraseTable

	// words maps a lower-cased word to every role it plays, so the
	// recognizer probes one map once per token position instead of
	// one map per role; a phrase table is probed only when the word's
	// bit says one of its phrases starts there.
	words map[string]refWordBits
}

func refDefaultGazetteers() *refGazetteers {
	g := &refGazetteers{
		designations: refNewPhraseTable(DESIG, gazetteer.Designations),
		places:       refNewPhraseTable(PLC, gazetteer.Places),
		products:     refNewPhraseTable(PROD, gazetteer.Products),
		objects:      refNewPhraseTable(OBJ, gazetteer.Objects),
		lengthUnits:  refNewPhraseTable(LNGTH, gazetteer.LengthUnits),
		words:        make(map[string]refWordBits),
	}
	for _, set := range []struct {
		bit   refWordBits
		words []string
	}{
		{refKnownOrg, gazetteer.KnownOrgs},
		{refCompanyCore, gazetteer.CompanyCores},
		{refOrgSuffix, gazetteer.CompanySuffixes},
		{refFirstName, gazetteer.FirstNames},
		{refLastName, gazetteer.LastNames},
		{refMonth, gazetteer.Months},
		{refWeekday, gazetteer.Weekdays},
		{refMagnitude, refMagnitudes},
		{refCurrencyWord, refCurrencyWords},
	} {
		for _, w := range set.words {
			g.words[strings.ToLower(w)] |= set.bit
		}
	}
	for _, t := range []struct {
		bit   refWordBits
		table *refPhraseTable
	}{
		{refStartsDesignation, g.designations},
		{refStartsPlace, g.places},
		{refStartsProduct, g.products},
		{refStartsObject, g.objects},
		{refStartsLengthUnit, g.lengthUnits},
	} {
		for first := range t.table.byFirst {
			g.words[first] |= t.bit
		}
	}
	return g
}

// refMatchAt tries every matcher at position i, highest priority first.
// The gazetteer map is probed once for the word at i; matchers look
// further ahead only after cheaper tests pass.
func (r *refRecognizer) refMatchAt(tokens []textproc.Token, lowered []string, i int) (Category, int) {
	b := r.gaz.words[lowered[i]]
	if span := r.refMatchCurrency(tokens, lowered, i); span > 0 {
		return CURRENCY, span
	}
	if span := r.refMatchPercent(tokens, lowered, i); span > 0 {
		return PRCNT, span
	}
	if span := r.refMatchLength(tokens, lowered, i); span > 0 {
		return LNGTH, span
	}
	if span := r.refMatchTime(tokens, lowered, i); span > 0 {
		return TIM, span
	}
	if span := r.refMatchPeriod(tokens, lowered, i, b); span > 0 {
		return PERIOD, span
	}
	if span := r.refMatchYear(tokens, i); span > 0 {
		return YEAR, span
	}
	if span := r.refMatchCount(tokens, i); span > 0 {
		return CNT, span
	}
	if b&refStartsDesignation != 0 {
		if span := r.gaz.designations.match(lowered, i); span > 0 {
			return DESIG, span
		}
	}
	if span := r.refMatchOrg(tokens, lowered, i, b); span > 0 {
		return ORG, span
	}
	if b&refStartsProduct != 0 {
		if span := r.gaz.products.match(lowered, i); span > 0 && refIsCap(tokens[i].Text) {
			return PROD, span
		}
	}
	if b&refStartsObject != 0 {
		if span := r.gaz.objects.match(lowered, i); span > 0 && refIsCap(tokens[i].Text) {
			return OBJ, span
		}
	}
	if span := r.refMatchPerson(tokens, lowered, i, b); span > 0 {
		return PRSN, span
	}
	if b&refStartsPlace != 0 {
		if span := r.gaz.places.match(lowered, i); span > 0 && refIsCap(tokens[i].Text) {
			return PLC, span
		}
	}
	return "", 0
}

// --- numeric patterns -------------------------------------------------

// refMatchCurrency matches "$5", "$5.2 million", "5 million dollars",
// "160 million USD".
func (r *refRecognizer) refMatchCurrency(tokens []textproc.Token, lowered []string, i int) int {
	n := len(tokens)
	// Symbol-led: $ NUMBER [magnitude]
	if isCurrencySymbol(tokens[i].Text) {
		if i+1 < n && tokens[i+1].IsNumber() {
			span := 2
			if i+2 < n && r.gaz.words[lowered[i+2]]&refMagnitude != 0 {
				span = 3
			}
			return span
		}
		return 0
	}
	// Number-led: NUMBER [magnitude] currencyWord
	if tokens[i].IsNumber() {
		j := i + 1
		if j < n && r.gaz.words[lowered[j]]&refMagnitude != 0 {
			j++
		}
		if j < n && r.gaz.words[lowered[j]]&refCurrencyWord != 0 {
			return j - i + 1
		}
	}
	return 0
}

// refMatchPercent matches "10%", "10 percent", "3.5 percentage points".
func (r *refRecognizer) refMatchPercent(tokens []textproc.Token, lowered []string, i int) int {
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

// refMatchLength matches "500 square feet", "2 terabytes".
func (r *refRecognizer) refMatchLength(tokens []textproc.Token, lowered []string, i int) int {
	if !tokens[i].IsNumber() {
		return 0
	}
	if i+1 >= len(tokens) {
		return 0
	}
	if r.gaz.words[lowered[i+1]]&refStartsLengthUnit == 0 {
		return 0
	}
	if span := r.gaz.lengthUnits.match(lowered, i+1); span > 0 {
		return 1 + span
	}
	return 0
}

// refMatchTime matches "3:30", "3:30 pm", "9 am", "9 a.m".
func (r *refRecognizer) refMatchTime(tokens []textproc.Token, lowered []string, i int) int {
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

// refMatchPeriod matches calendar expressions: "January 12, 2004",
// "January 2004", "January", "Monday", "Q4", "fourth quarter",
// "first half", "last year", "next quarter", "previous quarter".
func (r *refRecognizer) refMatchPeriod(tokens []textproc.Token, lowered []string, i int, b refWordBits) int {
	n := len(tokens)
	w := lowered[i]

	if b&refMonth != 0 && refIsCap(tokens[i].Text) {
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
	if b&refWeekday != 0 && refIsCap(tokens[i].Text) {
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
	// relative periods: "last year", "this quarter", "next refMonth",
	// "previous quarter" — PERIOD expressions the ranking component's
	// time resolver consumes.
	if (w == "last" || w == "next" || w == "previous" || w == "this") && i+1 < n {
		switch lowered[i+1] {
		case "year", "quarter", "refMonth", "week":
			return 2
		}
	}
	return 0
}

// refMatchYear matches a sole 4-digit year.
func (r *refRecognizer) refMatchYear(tokens []textproc.Token, i int) int {
	if isYearNumber(tokens[i]) {
		return 1
	}
	return 0
}

// refMatchCount matches any remaining bare number as a count figure.
func (r *refRecognizer) refMatchCount(tokens []textproc.Token, i int) int {
	if tokens[i].IsNumber() {
		return 1
	}
	return 0
}

// --- name patterns ----------------------------------------------------

// refMatchOrg matches organizations:
//  1. known full org names ("IBM", "Daksh");
//  2. one or two capitalized tokens followed by a corporate suffix
//     ("Brellvane Inc", "Silverlake Capital Group" — suffix run absorbed);
//  3. a bare gazetteer company core ("Halcyon").
func (r *refRecognizer) refMatchOrg(tokens []textproc.Token, lowered []string, i int, b refWordBits) int {
	n := len(tokens)
	if b&refKnownOrg != 0 && refIsCap(tokens[i].Text) {
		return 1
	}
	if !refIsCap(tokens[i].Text) || !tokens[i].IsWord() {
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
	for j < n && tokens[j].IsWord() && refIsCap(tokens[j].Text) && j-i < 3 {
		if j > i && r.gaz.words[lowered[j]]&refOrgSuffix != 0 {
			// absorb a second suffix ("Holdings Ltd")
			k := j + 1
			if k < n && tokens[k].IsWord() && r.gaz.words[lowered[k]]&refOrgSuffix != 0 {
				k++
			}
			return k - i
		}
		j++
	}
	if j < n && j > i && j-i <= 3 && tokens[j].IsWord() && r.gaz.words[lowered[j]]&refOrgSuffix != 0 {
		return j - i + 1
	}
	// Bare known core.
	if b&refCompanyCore != 0 {
		return 1
	}
	return 0
}

// refMatchPerson matches person names:
//  1. honorific + capitalized name(s): "Mr. Andersen", "Dr. Jane Smith";
//  2. FirstName [Initial.] LastName;
//  3. FirstName + unknown capitalized token (recognizer generalization);
//  4. bare FirstName LastName pairs from the gazetteer.
func (r *refRecognizer) refMatchPerson(tokens []textproc.Token, lowered []string, i int, b refWordBits) int {
	n := len(tokens)
	if isHonorific(lowered[i]) && refIsCap(tokens[i].Text) {
		j := i + 1
		// optional period after the honorific
		if j < n && tokens[j].Text == "." {
			j++
		}
		start := j
		for j < n && j-start < 3 && tokens[j].IsWord() && refIsCap(tokens[j].Text) {
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

	if b&refFirstName == 0 || !refIsCap(tokens[i].Text) {
		return 0
	}
	j := i + 1
	// optional middle initial: "James R. Smith"
	if j+1 < n && tokens[j].IsWord() && len(tokens[j].Text) == 1 &&
		refIsCap(tokens[j].Text) && tokens[j+1].Text == "." {
		j += 2
	}
	if j < n && tokens[j].IsWord() && refIsCap(tokens[j].Text) {
		// Known surname, or any unknown capitalized token that is not
		// itself an org/place/etc. (generalization with realistic
		// over-triggering).
		if lb := r.gaz.words[lowered[j]]; lb&refLastName != 0 ||
			lb&(refKnownOrg|refCompanyCore|refOrgSuffix|refMonth) == 0 {
			return j - i + 1
		}
	}
	return 0
}

func refIsCap(s string) bool {
	for _, r := range s {
		return unicode.IsUpper(r)
	}
	return false
}
