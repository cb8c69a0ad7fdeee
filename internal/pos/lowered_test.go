package pos

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"etap/internal/textproc"
)

// TestTagTokensMatchesTags checks the wrapper against the lowered-slice
// entry point on random sentences over lexicon words, suffix-guessed
// words and capitalized forms, with the lowered slice built
// independently of textproc.Lowered.
func TestTagTokensMatchesTags(t *testing.T) {
	check := func(text string) bool {
		tokens := textproc.Tokenize(text)
		lowered := make([]string, len(tokens))
		for i, tok := range tokens {
			lowered[i] = strings.ToLower(tok.Text)
		}
		tags := Tags(tokens, lowered)
		want := make([]TaggedToken, len(tokens))
		for i, tok := range tokens {
			want[i] = TaggedToken{Token: tok, Tag: tags[i]}
		}
		if got := TagTokens(tokens); !reflect.DeepEqual(got, want) {
			t.Errorf("TagTokens(%q)\n got  %+v\n want %+v", text, got, want)
			return false
		}
		return true
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
