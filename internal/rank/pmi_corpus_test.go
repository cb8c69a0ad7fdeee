package rank

import (
	"testing"

	"etap/internal/corpus"
	"etap/internal/index"
)

// TestInduceLexiconOnCorpus checks PMI-IR end to end on the generated
// world: induced weights must sign-agree with the known orientation of
// most candidate words (Turney reports ~80% accuracy; we require 70%).
func TestInduceLexiconOnCorpus(t *testing.T) {
	docs := corpus.NewGenerator(corpus.Config{
		Seed: 51, RelevantPerDriver: 80, BackgroundDocs: 200,
		HardNegativePerDriver: 20, FamousEventDocs: 4,
	}).World()
	ix, err := index.OpenSegmentIndex(index.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		ix.Add(d.URL, d.Text())
	}

	want := map[string]float64{
		"healthy": 1, "robust": 1, "impressive": 1, "solid": 1, "stellar": 1,
		"severe": -1, "sharp": -1, "steep": -1, "disappointing": -1, "painful": -1,
	}
	var candidates []string
	for w := range want {
		candidates = append(candidates, w)
	}
	lx := InduceLexicon(ix,
		[]string{"up", "rose", "grew", "increased"},
		[]string{"down", "fell", "declined", "losses"},
		candidates,
	)

	agree, total := 0, 0
	for w, sign := range want {
		v, ok := lx[w]
		if !ok {
			continue
		}
		total++
		if (v > 0) == (sign > 0) {
			agree++
		}
	}
	if total < 8 {
		t.Fatalf("only %d candidates found in the corpus", total)
	}
	if frac := float64(agree) / float64(total); frac < 0.7 {
		t.Errorf("sign agreement %.2f (%d/%d), want >= 0.7; lexicon %v",
			frac, agree, total, lx)
	}
}
