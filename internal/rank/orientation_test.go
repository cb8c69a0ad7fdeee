package rank

import (
	"testing"

	"etap/internal/corpus"
	"etap/internal/index"
	"etap/internal/textproc"
)

func TestLexiconScoreStrongPhrases(t *testing.T) {
	lx := DefaultRevenueLexicon()
	strong := lx.Score("The company posted a sharp decline in sales.")
	weak := lx.Score("The company posted a decline in sales.")
	if strong >= weak {
		t.Fatalf("strong phrase (%v) should be more negative than weak word (%v)", strong, weak)
	}
}

func TestLexiconScoreLongestMatchWins(t *testing.T) {
	lx := Lexicon{"decline": -1, "sharp decline": -3}
	got := lx.Score("a sharp decline happened")
	if got != -3 {
		t.Fatalf("score = %v, want -3 (no double counting)", got)
	}
}

func TestLexiconScorePositive(t *testing.T) {
	lx := DefaultRevenueLexicon()
	if got := lx.Score("The firm reported significant growth and a solid quarter."); got < 5 {
		t.Fatalf("score = %v, want strongly positive", got)
	}
}

func TestLexiconScoreNeutral(t *testing.T) {
	lx := DefaultRevenueLexicon()
	if got := lx.Score("The weather stayed pleasant in the city."); got != 0 {
		t.Fatalf("neutral text scored %v", got)
	}
}

func TestLexiconScoreStemmedFallback(t *testing.T) {
	lx := Lexicon{textproc.Stem("profits"): 1} // entry stored under stem
	if got := lx.Score("Profits soared."); got != 1 {
		t.Fatalf("stem fallback failed: %v", got)
	}
}

func TestLexiconApply(t *testing.T) {
	lx := DefaultRevenueLexicon()
	events := []Event{
		{SnippetID: "a", Text: "significant growth this quarter"},
		{SnippetID: "b", Text: "severe losses in the unit"},
	}
	out := lx.Apply(events)
	if out[0].Orientation <= 0 || out[1].Orientation >= 0 {
		t.Fatalf("orientations = %+v", out)
	}
	if events[0].Orientation != 0 {
		t.Fatal("Apply mutated its input")
	}
}

func TestLexiconEntriesSorted(t *testing.T) {
	lx := Lexicon{"good": 2, "bad": -2, "fine": 1}
	entries := lx.Entries()
	if len(entries) != 3 || entries[0] != "good" || entries[2] != "bad" {
		t.Fatalf("entries = %v", entries)
	}
}

func TestInduceLexiconPMI(t *testing.T) {
	ix, err := index.OpenSegmentIndex(index.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// "surge" co-occurs with positive seeds, "slump" with negative ones.
	ix.Add("p1", "the surge was excellent and strong this year")
	ix.Add("p2", "an excellent surge in demand looked strong")
	ix.Add("p3", "strong excellent outlook with a surge")
	ix.Add("n1", "the slump was poor and weak across units")
	ix.Add("n2", "a poor weak quarter deepened the slump")
	ix.Add("n3", "weak poor forecasts and a slump")
	ix.Add("bg", "neutral filler text about gardens and music")

	lx := InduceLexicon(ix,
		[]string{"excellent", "strong"},
		[]string{"poor", "weak"},
		[]string{"surge", "slump", "gardens", "unknownword"},
	)
	if lx["surge"] <= 0 {
		t.Errorf("SO(surge) = %v, want positive", lx["surge"])
	}
	if lx["slump"] >= 0 {
		t.Errorf("SO(slump) = %v, want negative", lx["slump"])
	}
	if _, ok := lx["unknownword"]; ok {
		t.Error("unknown word received an entry")
	}
	if v := lx["surge"]; v > 3.5 || v < -3.5 {
		t.Errorf("weight %v outside clamp range", v)
	}
}

// Every orientation phrase the corpus generator embeds must be covered
// by the default lexicon with the correct sign — otherwise Figure 8's
// ranking would silently ignore generated signal.
func TestDefaultLexiconCoversCorpusPhrases(t *testing.T) {
	lx := DefaultRevenueLexicon()
	for _, p := range corpus.PositivePhrases() {
		if w, ok := lx[p]; !ok || w <= 0 {
			t.Errorf("positive phrase %q: weight %v, ok %v", p, w, ok)
		}
	}
	for _, p := range corpus.NegativePhrases() {
		if w, ok := lx[p]; !ok || w >= 0 {
			t.Errorf("negative phrase %q: weight %v, ok %v", p, w, ok)
		}
	}
}

func BenchmarkLexiconScore(b *testing.B) {
	lx := DefaultRevenueLexicon()
	text := "The company posted significant growth with a solid quarter despite a sharp decline in one unit and severe losses abroad."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lx.Score(text)
	}
}
