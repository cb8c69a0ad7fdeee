package feature

import (
	"math"
	"slices"
	"sort"
)

// Scored pairs a feature with a selection score.
type Scored struct {
	Feature string
	Score   float64
}

// SelectionMeasure is one of the statistical measures the paper lists for
// classical feature selection (Section 3.2.1): "Standard measures used
// are chi-square, information gain, and mutual information."
type SelectionMeasure uint8

const (
	// ChiSquare is Pearson's chi-square statistic of the feature/label
	// contingency table.
	ChiSquare SelectionMeasure = iota
	// InfoGain is the information gain IG(Y; X) of the binary
	// feature-presence variable.
	InfoGain
	// MutualInfo is pointwise mutual information between feature
	// presence and the positive class.
	MutualInfo
)

// String returns the measure's short name as used in experiment
// reports.
func (m SelectionMeasure) String() string {
	switch m {
	case ChiSquare:
		return "chi2"
	case InfoGain:
		return "ig"
	default:
		return "mi"
	}
}

// Rank scores every feature occurring in examples by the chosen
// measure and returns them sorted by descending score, ties broken by
// name. examples[i] holds the feature ids of snippet i and labels[i]
// its class; a feature's score depends only on how many examples of
// each label hold it.
func (t *Table) Rank(examples [][]int32, labels []bool, m SelectionMeasure) []Scored {
	if len(examples) != len(labels) {
		panic("feature: examples and labels length mismatch")
	}
	// df[id] counts the examples of each label holding feature id;
	// last[id] is one more than the last example counted for it.
	df := make([][2]float64, t.Len())
	last := make([]int32, t.Len())
	var n [2]float64
	for i, ids := range examples {
		li := labelIndex(labels[i])
		n[li]++
		for _, id := range ids {
			if last[id] != int32(i+1) {
				last[id] = int32(i + 1)
				df[id][li]++
			}
		}
	}
	total := n[0] + n[1]
	if total == 0 {
		return nil
	}

	var out []Scored
	for id, c := range df {
		if c[0]+c[1] == 0 {
			continue
		}
		// Contingency table:
		//              y=neg        y=pos
		// present      a=c[0]       b=c[1]
		// absent       c2=n0-a      d=n1-b
		a, b := c[0], c[1]
		c2, d := n[0]-a, n[1]-b
		var score float64
		switch m {
		case ChiSquare:
			score = chi2(a, b, c2, d)
		case InfoGain:
			score = infoGain(a, b, c2, d)
		case MutualInfo:
			// PMI(x=1, y=pos) with add-one smoothing.
			pxy := (b + 1) / (total + 2)
			px := (a + b + 1) / (total + 2)
			py := (n[1] + 1) / (total + 2)
			score = math.Log2(pxy / (px * py))
		}
		out = append(out, Scored{Feature: t.Name(int32(id)), Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Feature < out[j].Feature
	})
	return out
}

// TopK returns the names of the k best features of examples (table
// ids) under the measure ("only the top few (an ad hoc tunable
// parameter in most experiments) features are retained"), sorted: the
// order a vocabulary interns them.
func (t *Table) TopK(examples [][]int32, labels []bool, m SelectionMeasure, k int) []string {
	ranked := t.Rank(examples, labels, m)
	names := make([]string, min(k, len(ranked)))
	for i := range names {
		names[i] = ranked[i].Feature
	}
	slices.Sort(names)
	return names
}

// Vocab returns a vocabulary of every feature of examples (table ids),
// in order of first appearance.
func (t *Table) Vocab(examples [][]int32) *Vocab {
	v := NewVocab()
	seen := make([]bool, t.Len())
	for _, ids := range examples {
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				v.ID(t.Name(id))
			}
		}
	}
	return v
}

func chi2(a, b, c, d float64) float64 {
	n := a + b + c + d
	num := a*d - b*c
	den := (a + b) * (c + d) * (a + c) * (b + d)
	if den == 0 {
		return 0
	}
	return n * num * num / den
}

func infoGain(a, b, c, d float64) float64 {
	n := a + b + c + d
	if n == 0 {
		return 0
	}
	hy := entropy([]float64{a + c, b + d})
	hyx := (a+b)/n*entropy([]float64{a, b}) + (c+d)/n*entropy([]float64{c, d})
	ig := hy - hyx
	if ig < 0 {
		return 0
	}
	return ig
}
