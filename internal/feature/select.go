package feature

import (
	"math"
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

// docSets converts feature-list examples into per-feature document
// frequency counts split by label.
func docSets(examples [][]string, labels []bool) (df map[string][2]float64, n [2]float64) {
	df = make(map[string][2]float64)
	seen := map[string]bool{} // one example's features, cleared for the next
	for i, feats := range examples {
		li := labelIndex(labels[i])
		n[li]++
		clear(seen)
		for _, f := range feats {
			if !seen[f] {
				seen[f] = true
				c := df[f]
				c[li]++
				df[f] = c
			}
		}
	}
	return df, n
}

// Rank scores every feature occurring in examples by the chosen measure
// and returns them sorted by descending score. examples[i] holds the
// feature list of snippet i and labels[i] its class.
func Rank(examples [][]string, labels []bool, m SelectionMeasure) []Scored {
	if len(examples) != len(labels) {
		panic("feature: examples and labels length mismatch")
	}
	df, n := docSets(examples, labels)
	total := n[0] + n[1]
	if total == 0 {
		return nil
	}

	out := make([]Scored, 0, len(df))
	for f, c := range df {
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
		out = append(out, Scored{Feature: f, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Feature < out[j].Feature
	})
	return out
}

// TopK returns the names of the k best features under the measure ("only
// the top few (an ad hoc tunable parameter in most experiments) features
// are retained").
func TopK(examples [][]string, labels []bool, m SelectionMeasure, k int) map[string]bool {
	ranked := Rank(examples, labels, m)
	if k > len(ranked) {
		k = len(ranked)
	}
	out := make(map[string]bool, k)
	for _, s := range ranked[:k] {
		out[s.Feature] = true
	}
	return out
}

// Filter keeps only the features present in keep.
func Filter(feats []string, keep map[string]bool) []string {
	out := make([]string, 0, len(feats))
	for _, f := range feats {
		if keep[f] {
			out = append(out, f)
		}
	}
	return out
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
