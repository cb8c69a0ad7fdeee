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
		gazetteer.Magnitudes, gazetteer.CurrencyWords,
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

// TestRecognizeMatchesReference checks every entry point against the
// reference recognizer on random gazetteer texts, with and without
// injected misses: RecognizeText and AppendEntities with the source
// text (entity text sliced from it), Recognize without (joined).
func TestRecognizeMatchesReference(t *testing.T) {
	check := func(r *Recognizer, text string) bool {
		ref := newRefRecognizer(r)
		tokens := textproc.Tokenize(text)
		if got, want := r.RecognizeText(text), ref.recognize(text, tokens); !reflect.DeepEqual(got, want) {
			t.Errorf("RecognizeText(%q)\n got  %+v\n want %+v", text, got, want)
			return false
		}
		if got, want := r.Recognize(tokens), ref.recognize("", tokens); !reflect.DeepEqual(got, want) {
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

// callerTokens cuts s at spaces into tokens the tokenizer would not
// produce: punctuation stays on words ("Inc."), and each token's kind
// is taken from kinds, cycling, out of range too, with offsets that
// match s only when kinds says so.
func callerTokens(s string, kinds []byte) []textproc.Token {
	var tokens []textproc.Token
	at := 0
	for i, f := range strings.Fields(s) {
		start := strings.Index(s[at:], f) + at
		at = start + len(f)
		k := byte(i)
		if len(kinds) > 0 {
			k = kinds[i%len(kinds)]
		}
		tok := textproc.Token{Text: f, Kind: textproc.TokenKind(k % 5), Start: start, End: at}
		if k&8 != 0 {
			tok.Start, tok.End = i, i+len(f)
		}
		tokens = append(tokens, tok)
	}
	return tokens
}

// FuzzRecognizeMatchesReference compares Recognize and AppendEntities
// with the reference on tokens built by hand from the input, which
// need not be what the tokenizer would cut, and on the tokenizer's own.
func FuzzRecognizeMatchesReference(f *testing.F) {
	for _, s := range []string{
		"",
		"IBM acquired Daksh for $160 million on January 12, 2004.",
		"Mr. J. K. Smith, the new Chief Executive Officer, arrived at 3:30 pm.",
		"growth of 10 % and 3.5 percentage points over 40 square feet",
		"$ 5 million dollars Q4 2004 fourth quarter last year",
		"Acme Holdings Ltd named New York's Mary Smith chief executive officer",
		"ÉCLAIR Inc. İntl Corp \xff\xfe 5 lakh rupees",
	} {
		f.Add(s, []byte{0, 1, 2, 3})
		f.Add(s, []byte{1, 9, 4, 255, 2})
	}
	plain, missing := NewRecognizer(), NewRecognizer(WithMissRate(0.3, 5))
	f.Fuzz(func(t *testing.T, s string, kinds []byte) {
		for _, r := range []*Recognizer{plain, missing} {
			ref := newRefRecognizer(r)
			for _, tokens := range [][]textproc.Token{callerTokens(s, kinds), textproc.Tokenize(s)} {
				if got, want := r.Recognize(tokens), ref.recognize("", tokens); !reflect.DeepEqual(got, want) {
					t.Fatalf("Recognize(%+v)\n got  %+v\n want %+v", tokens, got, want)
				}
				words := make([]*textproc.Word, len(tokens))
				for i, tok := range tokens {
					words[i] = textproc.Lookup(tok.Text)
				}
				if got, want := r.AppendEntities(nil, s, tokens, words), ref.recognize(s, tokens); !reflect.DeepEqual(got, want) {
					t.Fatalf("AppendEntities(%q, %+v)\n got  %+v\n want %+v", s, tokens, got, want)
				}
			}
		}
	})
}
