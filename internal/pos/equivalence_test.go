package pos

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"etap/internal/textproc"
)

// TestTagTokensMatchesReference checks TagTokens, TagText and
// AppendTags against the reference tagger on random sentences over
// lexicon words, suffix-guessed words and capitalized forms.
func TestTagTokensMatchesReference(t *testing.T) {
	check := func(text string) bool {
		tokens := textproc.Tokenize(text)
		want := refTagTokens(tokens)
		if got := TagTokens(tokens); !reflect.DeepEqual(got, want) {
			t.Errorf("TagTokens(%q)\n got  %+v\n want %+v", text, got, want)
			return false
		}
		if got := TagText(text); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Errorf("TagText(%q)\n got  %+v\n want %+v", text, got, want)
			return false
		}
		return checkAppendTags(t, tokens, want)
	}
	pool := []string{
		"the", "a", "its", "to", "will", "can", "has", "had", "was", "were", "is",
		"it", "company", "companies", "acquires", "acquired", "acquiring", "grows",
		"closes", "combined", "leading", "filing", "new", "quickly", "Acme",
		"IBM", "announced", "expects", "revenue", "profit", "chief", "officer",
		"named", "merger", "5", "$", "%", ",", ".", "'", "Widget", "Systems",
		"organization", "hopeful", "largest", "modernize", "Announced",
	}
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for n := 0; n < 2000; n++ {
		b.Reset()
		for k := 1 + rng.Intn(25); k > 0; k-- {
			w := pool[rng.Intn(len(pool))]
			if rng.Intn(5) == 0 {
				w = strings.ToUpper(w[:1]) + w[1:]
			}
			b.WriteString(w)
			b.WriteByte(' ')
		}
		if !check(b.String()) {
			return
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// checkAppendTags compares AppendTags, into a buffer holding a tag
// already, with the reference's tags.
func checkAppendTags(t *testing.T, tokens []textproc.Token, want []TaggedToken) bool {
	t.Helper()
	words := make([]*textproc.Word, len(tokens))
	for i, tok := range tokens {
		words[i] = textproc.Lookup(tok.Text)
	}
	got := AppendTags([]Tag{TagUH}, tokens, words)
	if len(got) != len(want)+1 || got[0] != TagUH {
		t.Errorf("AppendTags over %+v = %q, want %d tags after the one held", tokens, got, len(want))
		return false
	}
	for i, tt := range want {
		if got[i+1] != tt.Tag {
			t.Errorf("AppendTags over %+v: tag %d is %q, want %q", tokens, i, got[i+1], tt.Tag)
			return false
		}
	}
	return true
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

// FuzzTagTokensMatchesReference compares TagTokens and AppendTags with
// the reference on tokens built by hand from the input, which need not
// be what the tokenizer would cut, and on the tokenizer's own.
func FuzzTagTokensMatchesReference(f *testing.F) {
	for _, s := range []string{
		"",
		"The company acquires Widget Systems, it grows.",
		"to acquire to closing will acquires has acquired was named",
		"The combined company's leading filing ' $ 5 %",
		"Announced quickly: Organization hopeful largest modernize",
		"ÉCLAIR İntl café \xff\xfe 1,200.50 don't",
	} {
		f.Add(s, []byte{0, 1, 2, 3})
		f.Add(s, []byte{1, 9, 4, 255, 2})
	}
	f.Fuzz(func(t *testing.T, s string, kinds []byte) {
		for _, tokens := range [][]textproc.Token{callerTokens(s, kinds), textproc.Tokenize(s)} {
			want := refTagTokens(tokens)
			if got := TagTokens(tokens); !reflect.DeepEqual(got, want) {
				t.Fatalf("TagTokens(%+v)\n got  %+v\n want %+v", tokens, got, want)
			}
			checkAppendTags(t, tokens, want)
		}
	})
}
