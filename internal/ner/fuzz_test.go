package ner

import (
	"reflect"
	"strings"
	"testing"

	"etap/internal/textproc"
)

// FuzzRecognize asserts recognizer totality: no panics, non-overlapping
// in-order entities, spans within token bounds, and every entity's
// category in the 13-category inventory. Each entity's text must be its
// tokens joined by single spaces, whether it was sliced from the source
// text (RecognizeText) or joined afresh (Recognize), and both forms must
// find the same entities.
func FuzzRecognize(f *testing.F) {
	for _, s := range []string{
		"",
		"IBM acquired Daksh for $160 million on January 12, 2004.",
		"Mr. J. K. Smith, the new Chief Executive Officer, arrived at 3:30 pm.",
		"growth of 10% and 3.5 percentage points over 40 acres",
		"Q4 2004 fourth quarter last year next month",
		"$ % 1234 . . . Inc Corp Ltd",
		"mr mrs dr MR. DR.",
		"\xff\xfe broken bytes $5",
		"Acme  Holdings\tLtd named New\nYork's Mary   Smith chief executive officer",
		"Brellvane Inc\xff Corp paid \xe2\x82\xac5 million",
	} {
		f.Add(s)
	}
	valid := map[Category]bool{}
	for _, c := range Categories {
		valid[c] = true
	}
	rec := NewRecognizer()
	f.Fuzz(func(t *testing.T, s string) {
		tokens := textproc.Tokenize(s)
		entities := rec.RecognizeText(s)
		if joined := rec.Recognize(tokens); !reflect.DeepEqual(entities, joined) {
			t.Fatalf("RecognizeText(%q) = %+v, Recognize = %+v", s, entities, joined)
		}
		prev := -1
		for _, e := range entities {
			if !valid[e.Category] {
				t.Fatalf("unknown category %q", e.Category)
			}
			if e.TokenStart < 0 || e.TokenEnd > len(tokens) || e.TokenStart >= e.TokenEnd {
				t.Fatalf("bad token span %+v", e)
			}
			if e.TokenStart < prev {
				t.Fatalf("overlap at %+v", e)
			}
			prev = e.TokenEnd
			if e.Start < 0 || e.End > len(s) || e.Start >= e.End {
				t.Fatalf("bad byte span %+v for %q", e, s)
			}
			if e.Text == "" {
				t.Fatalf("empty entity text: %+v", e)
			}
			words := make([]string, 0, e.Span())
			for _, tok := range tokens[e.TokenStart:e.TokenEnd] {
				words = append(words, tok.Text)
			}
			if want := strings.Join(words, " "); e.Text != want {
				t.Fatalf("entity text %q, want its tokens joined: %q", e.Text, want)
			}
		}
	})
}
