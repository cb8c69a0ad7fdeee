package ner

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"etap/internal/gazetteer"
	"etap/internal/textproc"
)

// gazetteerText returns n random texts built from every gazetteer's
// entries, numbers, symbols and punctuation, in random case, so that
// every matcher fires.
func gazetteerText(rng *rand.Rand, n int) []string {
	var pool []string
	for _, list := range [][]string{
		gazetteer.CompanyCores, gazetteer.CompanySuffixes, gazetteer.KnownOrgs,
		gazetteer.FirstNames, gazetteer.LastNames, gazetteer.Designations,
		gazetteer.Places, gazetteer.Products, gazetteer.Objects,
		gazetteer.LengthUnits, gazetteer.Months, gazetteer.Weekdays,
		gazetteer.Quarters, gazetteer.UnknownOrgCores, gazetteer.UnknownSurnames,
		magnitudes, currencyWords,
		{"$", "€", "%", "12", "2004", "3.5", "1,200", ":", "30", "pm", "a.m",
			"percent", "percentage", "points", "fourth", "quarter", "last", "year",
			"Mr", "Dr.", "J.", ".", ",", "the", "The", "of", "and", "acquired"},
	} {
		pool = append(pool, list...)
	}
	out := make([]string, n)
	var b strings.Builder
	for i := range out {
		b.Reset()
		for k := 1 + rng.Intn(30); k > 0; k-- {
			w := pool[rng.Intn(len(pool))]
			switch rng.Intn(6) {
			case 0:
				w = strings.ToLower(w)
			case 1:
				w = strings.ToUpper(w)
			}
			b.WriteString(w)
			b.WriteByte(' ')
		}
		out[i] = b.String()
	}
	return out
}

// TestRecognizeMatchesRecognizeLowered checks the wrapper against the
// lowered-slice entry point, with the lowered slice built independently
// of textproc.Lowered, with and without injected misses.
func TestRecognizeMatchesRecognizeLowered(t *testing.T) {
	check := func(r *Recognizer, text string) bool {
		tokens := textproc.Tokenize(text)
		lowered := make([]string, len(tokens))
		for i, tok := range tokens {
			lowered[i] = strings.ToLower(tok.Text)
		}
		got, want := r.Recognize(tokens), r.RecognizeLowered(tokens, lowered)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Recognize(%q)\n got  %+v\n want %+v", text, got, want)
			return false
		}
		return true
	}
	plain, missing := NewRecognizer(), NewRecognizer(WithMissRate(0.3, 5))
	entities := 0
	for _, text := range gazetteerText(rand.New(rand.NewSource(1)), 2000) {
		if !check(plain, text) || !check(missing, text) {
			return
		}
		entities += len(plain.RecognizeText(text))
	}
	if entities < 2000 {
		t.Fatalf("only %d entities in 2000 texts: the generator misses the gazetteers", entities)
	}
	f := func(s string) bool { return check(plain, s) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
