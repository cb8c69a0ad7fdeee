package rank

import "math"

// CorpusStats is the slice of the search engine PMI-IR needs:
// document-frequency and proximity co-occurrence counts. The segment
// index (index.Engine) satisfies it, durable or memory-only.
type CorpusStats interface {
	// DocFreq returns the document frequency of one term.
	DocFreq(term string) int
	// CoNearFreq counts documents where the terms occur within window
	// positions of each other.
	CoNearFreq(a, b string, window int) int
}

// InduceLexicon builds a semantic-orientation lexicon automatically from
// seed words using the PMI-IR method of Turney [14], which the paper
// cites as the alternative to manual lexicon construction: the semantic
// orientation of a candidate word is
//
//	SO(w) = PMI(w, positive seeds) − PMI(w, negative seeds)
//
// with PMI estimated from NEAR co-occurrence counts in the search index
// (Turney's NEAR operator, here "within 10 tokens"), with add-0.01
// smoothing as in Turney's work.
func InduceLexicon(ix CorpusStats, posSeeds, negSeeds, candidates []string) Lexicon {
	const (
		smoothing  = 0.01
		nearWindow = 10
	)
	so := func(w string) float64 {
		var posHits, negHits float64 = smoothing, smoothing
		var posDF, negDF float64 = smoothing, smoothing
		for _, s := range posSeeds {
			posHits += float64(ix.CoNearFreq(w, s, nearWindow))
			posDF += float64(ix.DocFreq(s))
		}
		for _, s := range negSeeds {
			negHits += float64(ix.CoNearFreq(w, s, nearWindow))
			negDF += float64(ix.DocFreq(s))
		}
		// log2( (hits(w NEAR pos) * df(neg)) / (hits(w NEAR neg) * df(pos)) )
		return math.Log2((posHits * negDF) / (negHits * posDF))
	}

	lx := Lexicon{}
	for _, c := range candidates {
		if ix.DocFreq(c) == 0 {
			continue // unknown words get no entry
		}
		v := so(c)
		// Clamp to the manual lexicon's weight range for comparability.
		if v > 3.5 {
			v = 3.5
		}
		if v < -3.5 {
			v = -3.5
		}
		lx[c] = v
	}
	return lx
}
