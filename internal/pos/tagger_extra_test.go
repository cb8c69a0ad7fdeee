package pos

import (
	"testing"
	"testing/quick"

	"etap/internal/postag"
	"etap/internal/textproc"
)

// Business-news sentences with per-token expectations for the tags the
// feature abstraction relies on.
func TestTagBusinessSentences(t *testing.T) {
	cases := []struct {
		text string
		want map[string]Tag
	}{
		{
			"The merger creates the largest firm in the sector.",
			map[string]Tag{"merger": TagNN, "largest": TagJJS, "firm": TagNN, "sector": TagNN},
		},
		{
			"Shares fell sharply after the disappointing results.",
			map[string]Tag{"fell": TagVBD, "sharply": TagRB, "results": TagNNS},
		},
		{
			"Analysts expect revenue to rise steadily next year.",
			map[string]Tag{"expect": TagVB, "rise": TagVB, "steadily": TagRB, "next": TagJJ},
		},
		{
			"She previously served as treasurer of the group.",
			map[string]Tag{"previously": TagRB, "served": TagVBD, "of": TagIN},
		},
		{
			"The takeover was blocked by regulators.",
			map[string]Tag{"was": TagVBD, "blocked": TagVBN, "by": TagIN},
		},
	}
	for _, c := range cases {
		got := tagsOf(c.text)
		for w, want := range c.want {
			if got[w] != want {
				t.Errorf("%q in %q: got %q, want %q", w, c.text, got[w], want)
			}
		}
	}
}

func TestTagNominalizedGerund(t *testing.T) {
	got := tagsOf("The filing surprised the regulators.")
	if got["filing"] != TagNN {
		t.Errorf("filing after determiner: got %q, want nn", got["filing"])
	}
}

func TestTagParticipialModifier(t *testing.T) {
	got := tagsOf("The combined company employs thousands.")
	if got["combined"] != TagJJ {
		t.Errorf("combined before noun: got %q, want jj", got["combined"])
	}
}

func TestSuffixGuesses(t *testing.T) {
	cases := map[string]Tag{
		"flibbertization": TagNN,  // -ization
		"blortment":       TagNN,  // -ment
		"quaxity":         TagNN,  // -ity
		"snorfable":       TagJJ,  // -able
		"glimful":         TagJJ,  // -ful
		"vrentish":        TagNN,  // default
		"crandling":       TagVBG, // -ing
		"plorted":         TagVBD, // -ed
		"zintify":         TagVB,  // -ify
		"dunkest":         TagJJS, // -est
	}
	for w, want := range cases {
		if got := postag.SuffixGuess(w); got != want {
			t.Errorf("SuffixGuess(%q) = %q, want %q", w, got, want)
		}
	}
}

// Property: the tagger is total and length-preserving over arbitrary
// input, and every produced tag is non-empty.
func TestTagPropertyTotal(t *testing.T) {
	f := func(s string) bool {
		toks := textproc.Tokenize(s)
		tagged := TagTokens(toks)
		if len(tagged) != len(toks) {
			return false
		}
		for _, tt := range tagged {
			if tt.Tag == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: coarse tags form a fixed small set.
func TestTagPropertyCoarseClosed(t *testing.T) {
	valid := map[Tag]bool{
		TagNN: true, TagNP: true, TagVB: true, TagJJ: true, TagRB: true,
		TagIN: true, TagDT: true, TagCC: true, TagCD: true, TagPRP: true,
		TagTO: true, TagEX: true, TagWDT: true, TagWP: true, TagWRB: true,
		TagPOS: true, TagUH: true, TagSym: true, TagPct: true,
	}
	f := func(s string) bool {
		for _, tt := range TagText(s) {
			if !valid[tt.Tag.Coarse()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
