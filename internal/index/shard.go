package index

import (
	"math"
	"sync"
)

// shard is one slice of the in-RAM index: a term→postings map over the
// subset of documents whose ID hashes to it. A document lives entirely
// within one shard, so conjunctive matching, phrase adjacency and
// per-document scoring never cross shard boundaries; only document
// frequencies and length statistics must be aggregated globally
// (resolveParts does that before fanning out).
//
// Each shard carries its own RWMutex: Add takes the write lock of the
// owning shard only, searches take read locks, so bulk loading
// parallelizes across shards and queries never serialize behind each
// other.
type shard struct {
	mu       sync.RWMutex
	ids      []string
	byID     map[string]int32
	postings map[string][]Posting
	docLen   []float64
	totalLen float64
}

func newShard() *shard {
	return &shard{
		byID:     make(map[string]int32),
		postings: make(map[string][]Posting),
	}
}

// add indexes one document under the shard's write lock and reports a
// duplicate ID instead of adding it (the hash routes equal IDs to the
// same shard, so shard-local detection is global detection).
func (s *shard) add(docID string, ts []string) (dup bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byID[docID]; dup {
		return true
	}
	doc := int32(len(s.ids))
	s.ids = append(s.ids, docID)
	s.byID[docID] = doc
	s.docLen = append(s.docLen, float64(len(ts)))
	s.totalLen += float64(len(ts))

	seenAt := map[string][]int32{}
	for pos, term := range ts {
		seenAt[term] = append(seenAt[term], int32(pos))
	}
	for term, positions := range seenAt {
		s.postings[term] = append(s.postings[term], Posting{Doc: doc, Positions: positions})
	}
	return false
}

// has reports whether the shard holds docID.
func (s *shard) has(docID string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.byID[docID]
	return ok
}

// unheld keeps the documents of idx, indexes into docs, that the shard
// does not hold, in order, under one read lock.
func (s *shard) unheld(docs []Doc, idx []int) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	kept := idx[:0]
	for _, i := range idx {
		if _, ok := s.byID[docs[i].ID]; !ok {
			kept = append(kept, i)
		}
	}
	return kept
}

// snapshotStats reads the shard's corpus statistics under the read lock.
func (s *shard) snapshotStats(distinct []string) partStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := partStats{docs: len(s.ids), totalLen: s.totalLen, df: make([]int, len(distinct))}
	for i, t := range distinct {
		st.df[i] = len(s.postings[t])
	}
	return st
}

// searchPart resolves the query against this shard's documents through
// the shared matchAndScore algorithm, under the read lock. sc.lists
// holds references into the shard's live postings slices; they never
// escape the lock, and putScratch drops them.
func (s *shard) searchPart(q *partQuery, sc *scratch) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, t := range q.distinct {
		sc.lists = append(sc.lists, s.postings[t])
	}
	matchAndScore(q, sc.lists, s.docLen, s.ids, sc)
}

// coFreq counts this shard's documents containing both terms (see
// countCo); it needs no scratch.
func (s *shard) coFreq(ta, tb string, window int32, _ *scratch) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return countCo(s.postings[ta], s.postings[tb], window)
}

// docFreq returns the shard-local document frequency of one term.
func (s *shard) docFreq(t string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.postings[t])
}

// size reports the shard's document count and number of postings-map
// entries (term, docs-containing-it pairs) for Stats.
func (s *shard) size() (docs, terms, postings int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	docs = len(s.ids)
	terms = len(s.postings)
	for _, pl := range s.postings {
		postings += len(pl)
	}
	return docs, terms, postings
}

func contains32(sorted []int32, v int32) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == v
}

// positionsNear reports whether two sorted position lists have a pair
// within the window.
func positionsNear(a, b []int32, window int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		d := a[i] - b[j]
		if d < 0 {
			d = -d
		}
		if d <= window {
			return true
		}
		if a[i] < b[j] {
			i++
		} else {
			j++
		}
	}
	return false
}

// idf is the BM25 inverse document frequency for a term with document
// frequency df in a corpus of n documents.
func idf(n, df int) float64 {
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}
