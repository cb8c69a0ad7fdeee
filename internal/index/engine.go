package index

import (
	"math"
	"slices"
	"sync"
	"time"
)

// Engine is the search surface shared by the in-RAM sharded index
// (Index) and the on-disk segment index (SegmentIndex). internal/web
// stores an Engine, so every consumer of the search substrate — smart
// queries, PMI-IR co-occurrence statistics, streaming ingest — works
// identically against either implementation; ranked results are
// bit-identical between the two (golden-tested).
type Engine interface {
	// Add indexes a document made of parts (a page's title and text),
	// read as one text with a space between parts; it is safe for
	// concurrent use. Adding the same docID twice panics — use Has for
	// idempotent callers.
	Add(docID string, parts ...string)
	// AddDocs bulk-loads docs: every document not yet indexed is added
	// as Add would add it, in order within its writer lane or shard,
	// and the ones already indexed (recovered by a reopened engine) are
	// skipped. An ID that occurs twice in docs panics. It is safe for
	// concurrent use with searches.
	AddDocs(docs []Doc)
	// Has reports whether docID is already indexed.
	Has(docID string) bool
	// Search ranks documents matching the query string and returns the
	// top k (all matches when k <= 0).
	//etaplint:ignore context-plumbing -- in-memory and page-cache lookup: no cancellable I/O, and a ctx parameter would suggest otherwise
	Search(query string, k int) []Hit
	// SearchQuery is Search over a pre-parsed query.
	//etaplint:ignore context-plumbing -- in-memory and page-cache lookup: no cancellable I/O, and a ctx parameter would suggest otherwise
	SearchQuery(q Query, k int) []Hit
	// DocFreq returns the document frequency of one term.
	DocFreq(term string) int
	// CoDocFreq counts documents containing both terms.
	CoDocFreq(a, b string) int
	// CoNearFreq counts documents where the terms occur within window
	// positions of each other.
	CoNearFreq(a, b string, window int) int
	// Len returns the number of indexed documents.
	Len() int
	// IndexStats returns a point-in-time operational summary.
	IndexStats() Stats
}

// Both engines must satisfy the shared surface.
var (
	_ Engine = (*Index)(nil)
	_ Engine = (*SegmentIndex)(nil)
)

// part is one independently searchable slice of an engine: an in-RAM
// shard, an active or sealed memtable, or an immutable on-disk segment.
// A document lives entirely within one part, so conjunctive matching,
// phrase adjacency and per-document scoring are part-local; only
// corpus-wide statistics are aggregated across parts before scoring.
// Implementations synchronize internally (or are immutable).
type part interface {
	// snapshotStats returns the part's contribution to corpus-wide BM25
	// statistics: document count, summed document length, and document
	// frequency for each of the distinct query terms.
	snapshotStats(distinct []string) partStats
	// searchPart resolves a query against this part's documents and
	// appends the matches to sc.hits (see matchAndScore).
	searchPart(q *partQuery, sc *scratch)
	// docFreq returns the part-local document frequency of one term.
	docFreq(t string) int
	// coFreq counts part-local documents containing both terms, within
	// window positions of each other when window > 0 (see countCo).
	coFreq(ta, tb string, window int32, sc *scratch) int
	// size reports document, term-entry and posting counts for Stats.
	size() (docs, terms, postings int)
}

// partQuery is a query as every part resolves it: its distinct tokens,
// its multi-token phrases as indexes into them, and the corpus-wide
// statistics phase 1 of resolveParts computed. It is shared read-only
// by every part of one query.
type partQuery struct {
	distinct []string  // sorted distinct query tokens, every one required
	phrases  [][]int   // each multi-token phrase, as indexes into distinct
	idf      []float64 // BM25 idf, parallel to distinct
	avgLen   float64   // average document length
}

// partStats is one part's contribution to the corpus-wide statistics
// BM25 needs before per-part scoring can run.
type partStats struct {
	docs     int
	totalLen float64
	df       []int // parallel to the distinct-terms slice passed in
}

// resolveParts answers a parsed-and-flattened query against a set of
// parts: phase 1 aggregates corpus-wide statistics (document count,
// total length, per-term document frequency), phase 2 matches and
// scores every part holding all the terms with those shared statistics,
// and the results merge through a bounded top-k heap. Because every per-document scoring
// input (tf, docLen, idf, avgLen) and the summation order (sorted
// distinct terms) are part-independent, ranked output — order and
// score — is identical for any partitioning of the same documents.
// With parallel set, phase 2 fans out across parts concurrently.
func resolveParts(parts []part, allTerms []string, phrases [][]string, k int, parallel bool) []Hit {
	// Distinct query tokens in sorted order — the shared scoring basis.
	distinct := slices.Clone(allTerms)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	q := partQuery{distinct: distinct, phrases: make([][]int, len(phrases))}
	for i, p := range phrases {
		q.phrases[i] = make([]int, len(p))
		for j, t := range p {
			q.phrases[i][j], _ = slices.BinarySearch(distinct, t)
		}
	}

	// Phase 1: aggregate corpus-wide statistics across parts, noting
	// the parts that hold every term: only those can match.
	nDocs, totalLen := 0, 0.0
	df := make([]int, len(distinct))
	matching := make([]part, 0, len(parts))
	for _, p := range parts {
		st := p.snapshotStats(distinct)
		nDocs += st.docs
		totalLen += st.totalLen
		for i, d := range st.df {
			df[i] += d
		}
		if !slices.Contains(st.df, 0) {
			matching = append(matching, p)
		}
	}
	var scanned uint64
	for _, d := range df {
		if d == 0 {
			// Conjunctive semantics: a term absent from the whole corpus
			// empties the result.
			return nil
		}
		scanned += uint64(d)
	}
	mPostings.Add(scanned)

	q.idf = make([]float64, len(distinct))
	for i, d := range df {
		q.idf[i] = idf(nDocs, d)
	}
	q.avgLen = totalLen / max(1, float64(nDocs))

	// Phase 2: match + score each matching part with the shared
	// statistics, each into its own scratch.
	scs := make([]*scratch, len(matching))
	for i := range scs {
		scs[i] = getScratch()
	}
	if !parallel || len(matching) == 1 {
		for i, p := range matching {
			p.searchPart(&q, scs[i])
		}
	} else {
		//etaplint:ignore determinism -- metrics-only timing: the timestamp feeds the fan-out histogram, never a result
		start := time.Now()
		var wg sync.WaitGroup
		for i, p := range matching {
			wg.Add(1)
			go func(p part, sc *scratch) {
				defer wg.Done()
				p.searchPart(&q, sc)
			}(p, scs[i])
		}
		wg.Wait()
		mFanout.ObserveSince(start)
	}

	// Merge: bounded heap keeps only the k best across parts; the hits
	// are copied out before each scratch goes back to the pool.
	n := 0
	for _, sc := range scs {
		n += len(sc.hits)
	}
	merger := newTopK(k, n)
	for _, sc := range scs {
		for _, h := range sc.hits {
			merger.push(h)
		}
		putScratch(sc)
	}
	return merger.results()
}

// coFreq answers CoDocFreq (window <= 0) and CoNearFreq over parts. A
// document lives in exactly one part, so the corpus-wide count is the
// sum of the part-local ones.
func coFreq(parts []part, a, b string, window int) int {
	ta, tb := terms(a), terms(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	w := int32(min(max(window, 0), math.MaxInt32))
	n := 0
	for _, p := range parts {
		sc := getScratch()
		n += p.coFreq(ta[0], tb[0], w, sc)
		putScratch(sc)
	}
	return n
}

// flattenQuery normalizes a parsed query for resolution: single-token
// phrases degrade to terms, and allTerms collects every token (terms
// plus phrase members) for conjunctive matching and scoring.
func flattenQuery(q Query) (allTerms []string, phrases [][]string) {
	allTerms = append([]string(nil), q.Terms...)
	for _, p := range q.Phrases {
		if len(p) == 1 {
			allTerms = append(allTerms, p[0])
		} else {
			phrases = append(phrases, p)
			allTerms = append(allTerms, p...)
		}
	}
	return allTerms, phrases
}
