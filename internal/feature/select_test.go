package feature

import (
	"slices"
	"testing"
)

// rankNames ranks feature-name examples through a table of their names.
func rankNames(examples [][]string, labels []bool, m SelectionMeasure) []Scored {
	t, ids := internNames(examples)
	return t.Rank(ids, labels, m)
}

// topKNames is TopK over feature-name examples.
func topKNames(examples [][]string, labels []bool, m SelectionMeasure, k int) []string {
	t, ids := internNames(examples)
	return t.TopK(ids, labels, m, k)
}

// internNames interns every name of examples into a fresh table.
func internNames(examples [][]string) (*Table, [][]int32) {
	t := NewTable()
	ids := make([][]int32, len(examples))
	for i, feats := range examples {
		for _, f := range feats {
			ids[i] = append(ids[i], t.Intern(f))
		}
	}
	return t, ids
}

// Synthetic dataset: "acquire" perfectly predicts positive, "weather"
// perfectly predicts negative, "said" is uninformative.
func selectionDataset() ([][]string, []bool) {
	var ex [][]string
	var labels []bool
	for i := 0; i < 40; i++ {
		ex = append(ex, []string{"acquire", "said"})
		labels = append(labels, true)
		ex = append(ex, []string{"weather", "said"})
		labels = append(labels, false)
	}
	return ex, labels
}

func TestRankChiSquare(t *testing.T) {
	ex, labels := selectionDataset()
	ranked := rankNames(ex, labels, ChiSquare)
	if len(ranked) != 3 {
		t.Fatalf("got %d features, want 3", len(ranked))
	}
	// Perfectly correlated features outrank the uninformative one.
	if ranked[2].Feature != "said" {
		t.Errorf("ranking = %+v, want 'said' last", ranked)
	}
	if ranked[0].Score <= ranked[2].Score {
		t.Errorf("discriminative score %v not above %v", ranked[0].Score, ranked[2].Score)
	}
}

func TestRankInfoGain(t *testing.T) {
	ex, labels := selectionDataset()
	ranked := rankNames(ex, labels, InfoGain)
	if ranked[2].Feature != "said" {
		t.Errorf("IG ranking = %+v, want 'said' last", ranked)
	}
	// IG of a perfect predictor on balanced classes is 1 bit.
	if ranked[0].Score < 0.9 {
		t.Errorf("IG top score = %v, want ~1", ranked[0].Score)
	}
	if ranked[2].Score > 1e-9 {
		t.Errorf("IG of uninformative feature = %v, want ~0", ranked[2].Score)
	}
}

func TestRankMutualInfo(t *testing.T) {
	ex, labels := selectionDataset()
	ranked := rankNames(ex, labels, MutualInfo)
	// "acquire" is positively associated with the positive class;
	// "weather" negatively. MI ranks positive association first.
	if ranked[0].Feature != "acquire" {
		t.Errorf("MI ranking = %+v, want 'acquire' first", ranked)
	}
}

func TestTopKAndFilter(t *testing.T) {
	ex, labels := selectionDataset()
	keep := topKNames(ex, labels, ChiSquare, 2)
	if !slices.Equal(keep, []string{"acquire", "weather"}) {
		t.Errorf("TopK = %v, want the two informative features in name order", keep)
	}
}

func TestTopKLargerThanVocab(t *testing.T) {
	ex, labels := selectionDataset()
	keep := topKNames(ex, labels, InfoGain, 100)
	if len(keep) != 3 {
		t.Errorf("TopK overflow: %d, want 3", len(keep))
	}
}

func TestRankEmpty(t *testing.T) {
	if got := rankNames(nil, nil, ChiSquare); got != nil {
		t.Errorf("empty: %v", got)
	}
}

func TestRankMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	rankNames([][]string{{"a"}}, nil, ChiSquare)
}

func TestRankDeterministicTieBreak(t *testing.T) {
	ex := [][]string{{"b", "a"}, {"a", "b"}}
	labels := []bool{true, false}
	r1 := rankNames(ex, labels, ChiSquare)
	r2 := rankNames(ex, labels, ChiSquare)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("nondeterministic ranking: %+v vs %+v", r1, r2)
		}
	}
}

func TestChi2Contingency(t *testing.T) {
	// Uniform table: no association.
	if got := chi2(10, 10, 10, 10); got != 0 {
		t.Errorf("chi2 uniform = %v, want 0", got)
	}
	// Perfect association.
	if got := chi2(20, 0, 0, 20); got != 40 {
		t.Errorf("chi2 perfect = %v, want n=40", got)
	}
	// Degenerate margin.
	if got := chi2(0, 0, 5, 5); got != 0 {
		t.Errorf("chi2 degenerate = %v, want 0", got)
	}
}
