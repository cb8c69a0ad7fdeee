package annotate

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"etap/internal/gazetteer"
	"etap/internal/ner"
	"etap/internal/pos"
	"etap/internal/textproc"
)

// refAnnotate is the annotator as it was before it looked each token up
// once: tokenize, recognize entities in the text, tag every token, then
// collapse entity spans and keep word tokens. It reaches the recognizer
// and the tagger through RecognizeText and TagTokens, which their own
// packages check against the pre-entry recognizer and tagger on any
// tokens (FuzzRecognizeMatchesReference, FuzzTagTokensMatchesReference).
func refAnnotate(rec *ner.Recognizer, text string) []Unit {
	tokens := textproc.Tokenize(text)
	entities := rec.RecognizeText(text)
	tags := pos.TagTokens(tokens)
	var out []Unit
	ei := 0
	for i := 0; i < len(tokens); {
		if ei < len(entities) && entities[ei].TokenStart == i {
			e := entities[ei]
			out = append(out, Unit{Text: e.Text, Entity: e.Category})
			i = e.TokenEnd
			ei++
			continue
		}
		if tokens[i].Kind == textproc.KindWord {
			out = append(out, Unit{Text: tokens[i].Text, POS: tags[i].Tag.Coarse()})
		}
		i++
	}
	return out
}

// checkAnnotation compares Annotate and AppendUnitsAndWords over text
// with refAnnotate: the same units, each word unit carrying its token's
// entry and no entity an entry, and the lower-cased word tokens.
func checkAnnotation(t *testing.T, a *Annotator, text string) {
	t.Helper()
	want := refAnnotate(a.rec, text)
	got := a.Annotate(text)
	if len(got) != len(want) {
		t.Fatalf("Annotate(%q): %d units, want %d:\n got  %+v\n want %+v", text, len(got), len(want), got, want)
	}
	for i, u := range got {
		if u.Text != want[i].Text || u.Entity != want[i].Entity || u.POS != want[i].POS {
			t.Fatalf("Annotate(%q): unit %d is %+v, want %+v", text, i, u, want[i])
		}
		switch {
		case u.IsEntity() && u.Word != nil:
			t.Fatalf("Annotate(%q): entity unit %d carries entry %+v", text, i, u.Word)
		case !u.IsEntity() && (u.Word == nil || *u.Word != *textproc.Lookup(u.Text)):
			t.Fatalf("Annotate(%q): word unit %d carries entry %+v", text, i, u.Word)
		case !u.IsEntity() && u.Lower() != strings.ToLower(u.Text):
			t.Fatalf("Annotate(%q): word unit %d lower-cases to %q", text, i, u.Lower())
		}
	}
	var wantWords []string
	for _, tok := range textproc.Tokenize(text) {
		if tok.Kind == textproc.KindWord {
			wantWords = append(wantWords, strings.ToLower(tok.Text))
		}
	}
	units, words := a.AppendUnitsAndWords(nil, []string{"held"}, text)
	if !reflect.DeepEqual(units, got) || !reflect.DeepEqual(words, append([]string{"held"}, wantWords...)) {
		t.Fatalf("AppendUnitsAndWords(%q) = %+v, %q; want %+v, %q", text, units, words, got, wantWords)
	}
}

// setMates are three words each, found by search, that share a set of
// textproc's word table (the low 13 bits of their FNV-1a hash), so one
// text can make them evict each other.
var setMates = [][]string{
	{"Acme", "Acmep64", "Acmey447"},
	{"merger", "mergern503", "mergera630"},
	{"growth", "growthh66", "growthh798"},
	{"chief", "chiefu56", "chiefk148"},
	{"quarter", "quarterw96", "quarterg315"},
}

// annotationPieces are what the random texts are built from: gazetteer
// entries, numbers with separators, apostrophes and hyphens, non-ASCII
// letters and spaces, words over the word table's 32 bytes, and words
// that share a table set.
func annotationPieces() []string {
	pieces := []string{
		"$", "€", "%", "12", "2004", "3.5", "1,200.50", "4.5.6", ":", "30", "pm", "a.m",
		"percent", "percentage", "points", "fourth", "quarter", "last", "year",
		"Mr", "Dr.", "J.", ".", ",", "!", "?", "'", "the", "The", "of", "to", "will", "has",
		"acquired", "acquires", "closing", "combined", "named", "don't", "AT&T's",
		"vice-president", "third-quarter", "Ünïcödé", "ÉCLAIR", "İntl", "café", "Ωmega",
		"\u00a0", "\u2003", "\u3000", " ", "\n", "\t", "\xff", "\xe2\x82",
		strings.Repeat("Acquisition", 3), strings.Repeat("réorganisation", 3),
	}
	for _, list := range [][]string{
		gazetteer.CompanyCores, gazetteer.CompanySuffixes, gazetteer.KnownOrgs,
		gazetteer.FirstNames, gazetteer.LastNames, gazetteer.Designations,
		gazetteer.Places, gazetteer.Products, gazetteer.Months, gazetteer.LengthUnits,
		gazetteer.Magnitudes, gazetteer.CurrencyWords,
	} {
		pieces = append(pieces, list[:min(len(list), 12)]...)
	}
	for _, m := range setMates {
		pieces = append(pieces, m...)
	}
	return pieces
}

// TestAnnotateMatchesReferenceRandom is the seeded comparison plain
// `go test` runs: random texts from annotationPieces, in random case,
// with and without injected recognition misses.
func TestAnnotateMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := annotationPieces()
	annotators := []*Annotator{New(nil), New(ner.NewRecognizer(ner.WithMissRate(0.3, 5)))}
	var b strings.Builder
	for n := 0; n < 3000; n++ {
		b.Reset()
		for k := 1 + rng.Intn(30); k > 0; k-- {
			w := pieces[rng.Intn(len(pieces))]
			switch rng.Intn(6) {
			case 0:
				w = strings.ToLower(w)
			case 1:
				w = strings.ToUpper(w)
			}
			b.WriteString(w)
			if rng.Intn(4) > 0 {
				b.WriteByte(' ')
			}
		}
		checkAnnotation(t, annotators[n%2], b.String())
	}
}

// FuzzAnnotateMatchesReference compares the annotator with refAnnotate
// on arbitrary text; the committed seeds under testdata/fuzz cover the
// cases TestAnnotateMatchesReferenceRandom draws from.
func FuzzAnnotateMatchesReference(f *testing.F) {
	f.Add("IBM acquired Daksh for $160 million on January 12, 2004.")
	f.Add("Acme Acmep64 Acmey447 Acme merger mergern503 mergera630 merger")
	annotators := []*Annotator{New(nil), New(ner.NewRecognizer(ner.WithMissRate(0.3, 5)))}
	f.Fuzz(func(t *testing.T, text string) {
		for _, a := range annotators {
			checkAnnotation(t, a, text)
		}
	})
}
