package pos

import (
	"testing"

	"etap/internal/textproc"
)

func tagsOf(text string) map[string]Tag {
	out := map[string]Tag{}
	for _, tt := range TagText(text) {
		out[tt.Token.Text] = tt.Tag
	}
	return out
}

func seq(text string) []Tag {
	tagged := TagText(text)
	out := make([]Tag, len(tagged))
	for i, tt := range tagged {
		out[i] = tt.Tag
	}
	return out
}

func TestTagClosedClasses(t *testing.T) {
	got := tagsOf("The company and its board will merge with them.")
	cases := map[string]Tag{
		"The": TagDT, "and": TagCC, "its": TagPPS, "will": TagMD,
		"with": TagIN, "them": TagPRP,
	}
	for w, want := range cases {
		if got[w] != want {
			t.Errorf("%q: got %q, want %q", w, got[w], want)
		}
	}
}

func TestTagVerbs(t *testing.T) {
	got := tagsOf("The firm announced that revenue grew sharply.")
	if got["announced"] != TagVBD {
		t.Errorf("announced: got %q, want vbd", got["announced"])
	}
	if got["grew"] != TagVBD {
		t.Errorf("grew: got %q, want vbd", got["grew"])
	}
	if got["sharply"] != TagRB {
		t.Errorf("sharply: got %q, want rb", got["sharply"])
	}
}

func TestTagProperNouns(t *testing.T) {
	got := tagsOf("Analysts said Quorvane hired Brandywine.")
	if got["Quorvane"] != TagNP {
		t.Errorf("Quorvane: got %q, want np", got["Quorvane"])
	}
	if got["Brandywine"] != TagNP {
		t.Errorf("Brandywine: got %q, want np", got["Brandywine"])
	}
}

func TestTagNumbers(t *testing.T) {
	got := tagsOf("Revenue rose 10 percent to 5.2 billion in 2004.")
	if got["10"] != TagCD || got["5.2"] != TagCD || got["2004"] != TagCD {
		t.Errorf("number tags wrong: %v", got)
	}
	if got["billion"] != TagCD {
		t.Errorf("billion: got %q, want cd", got["billion"])
	}
}

func TestTagInfinitive(t *testing.T) {
	got := tagsOf("The board plans to acquire a rival.")
	if got["acquire"] != TagVB {
		t.Errorf("acquire after to: got %q, want vb", got["acquire"])
	}
}

func TestTagPassiveParticiple(t *testing.T) {
	got := tagsOf("The deal was announced on Friday.")
	if got["announced"] != TagVBN {
		t.Errorf("announced after was: got %q, want vbn", got["announced"])
	}
}

func TestTagPerfect(t *testing.T) {
	got := tagsOf("The company has reported strong earnings.")
	if got["reported"] != TagVBN {
		t.Errorf("reported after has: got %q, want vbn", got["reported"])
	}
}

func TestTag3sgVerbAfterSubject(t *testing.T) {
	tagged := TagText("It acquires startups.")
	var acquires Tag
	for _, tt := range tagged {
		if tt.Token.Text == "acquires" {
			acquires = tt.Tag
		}
	}
	if acquires != TagVBZ {
		t.Errorf("acquires: got %q, want vbz", acquires)
	}
}

func TestTagAdjectives(t *testing.T) {
	got := tagsOf("The new interim chief posted solid quarterly results.")
	for _, w := range []string{"new", "interim", "solid", "quarterly"} {
		if got[w] != TagJJ {
			t.Errorf("%q: got %q, want jj", w, got[w])
		}
	}
}

func TestTagUnknownSuffixes(t *testing.T) {
	got := tagsOf("the reorganization was blargful and proceeded smoothlyly")
	if got["reorganization"] != TagNN {
		t.Errorf("reorganization: got %q, want nn", got["reorganization"])
	}
	if got["blargful"] != TagJJ {
		t.Errorf("blargful: got %q, want jj", got["blargful"])
	}
	if got["smoothlyly"] != TagRB {
		t.Errorf("smoothlyly: got %q, want rb", got["smoothlyly"])
	}
}

func TestTagSymbolsAndPunct(t *testing.T) {
	got := tagsOf("Profit hit $5 billion, up 10%.")
	if got["$"] != TagSym || got["%"] != TagSym {
		t.Errorf("symbol tags wrong: $=%q %%=%q", got["$"], got["%"])
	}
	if got[","] != TagPct || got["."] != TagPct {
		t.Errorf("punct tags wrong: ,=%q .=%q", got[","], got["."])
	}
}

func TestTagEmptyInput(t *testing.T) {
	if got := TagText(""); len(got) != 0 {
		t.Errorf("empty: got %d tags", len(got))
	}
}

func TestTagTokensAlignWithInput(t *testing.T) {
	toks := textproc.Tokenize("Acme Corp acquired Widget Inc.")
	tagged := TagTokens(toks)
	if len(tagged) != len(toks) {
		t.Fatalf("got %d tagged, want %d", len(tagged), len(toks))
	}
	for i := range toks {
		if tagged[i].Token != toks[i] {
			t.Errorf("token %d mismatch", i)
		}
	}
}

func TestCoarseMapping(t *testing.T) {
	cases := map[Tag]Tag{
		TagVBD: TagVB, TagVBG: TagVB, TagVBZ: TagVB, TagVBN: TagVB,
		TagNNS: TagNN, TagJJR: TagJJ, TagJJS: TagJJ,
		TagNP: TagNP, TagRB: TagRB, TagIN: TagIN,
	}
	for in, want := range cases {
		if got := in.Coarse(); got != want {
			t.Errorf("Coarse(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsContent(t *testing.T) {
	for _, tag := range []Tag{TagNN, TagNNS, TagNP, TagVB, TagVBD, TagJJ, TagRB} {
		if !tag.IsContent() {
			t.Errorf("%q should be content", tag)
		}
	}
	for _, tag := range []Tag{TagDT, TagIN, TagCC, TagCD, TagPct, TagSym, TagTO} {
		if tag.IsContent() {
			t.Errorf("%q should not be content", tag)
		}
	}
}

func TestTagSentenceInitialVerb(t *testing.T) {
	// Sentence-initial capitalized lexicon word stays in its class.
	got := seq("Announced today, the merger surprised analysts.")
	if got[0] != TagVBD && got[0] != TagVBN {
		t.Errorf("Announced: got %q, want a verb tag", got[0])
	}
}

func BenchmarkTagText(b *testing.B) {
	b.ReportAllocs()
	text := "Acme Corp announced that it has acquired Widget Systems for $120 million, and the new chief executive expects revenue to grow 15 percent next year."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TagText(text)
	}
}
