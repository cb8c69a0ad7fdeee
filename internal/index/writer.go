package index

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// memSegment is an active in-memory segment: the mutable batch one
// writer accumulates before it is sealed and flushed to disk. It holds
// each term's postings list already in the segment encoding (STORAGE.md
// §3.3), less the leading count, which it keeps beside the bytes as the
// term's df. Sealing is a sort of the term dictionary plus a straight
// copy of each list behind its count, and a query decodes a memtable's
// lists into pooled scratch through the same rarest-first routine as a
// segment's (searchEncoded, coFreqEncoded).
//
// The lists are pointer-free bytes: a posting costs its few varint
// bytes rather than a Posting header plus a positions array, and the
// garbage collector never scans them, so a memtable that stays
// unsealed for a whole run weighs on the heap goal about its encoded
// size.
//
// All methods synchronize through the RWMutex; a sealed memSegment is
// never written again but stays searchable until its flushed segment
// is committed and swapped into the engine view.
type memSegment struct {
	mu       sync.RWMutex
	ids      []string
	docLens  []float64
	totalLen float64
	dict     map[string]*memPostings
	posts    int // total (term, doc) postings, for Stats

	// add's scratch for grouping one document's positions by term,
	// reused across documents and touched only under the write lock:
	// groups lists the document's distinct terms in order of first
	// occurrence, and gpos[g] holds groups[g]'s positions.
	groups []*memPostings
	gpos   [][]int32
}

// memPostings is one term's growing postings list. The pointer
// indirection keeps the dictionary's values stable while lists grow.
type memPostings struct {
	enc     []byte // the list in appendPosting's encoding, without its count
	df      int    // postings in enc
	lastDoc int32  // the last posting's document: the next doc delta's base
	grp     int32  // the term's index in groups while add runs, else -1
}

func newMemSegment() *memSegment {
	return &memSegment{dict: make(map[string]*memPostings)}
}

// add appends one tokenized document. Documents get ascending
// part-local IDs; the caller (writer) guarantees docID uniqueness. The
// document's positions are grouped by term first, one dictionary lookup
// per token, because a posting's position count precedes its positions
// in the encoding; then each term's list gets the doc delta, the count
// and the position deltas.
func (m *memSegment) add(docID string, ts []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	doc := int32(len(m.ids))
	m.ids = append(m.ids, docID)
	m.docLens = append(m.docLens, float64(len(ts)))
	m.totalLen += float64(len(ts))
	groups := m.groups[:0]
	for pos, t := range ts {
		tp := m.dict[t]
		if tp == nil {
			tp = &memPostings{grp: -1}
			m.dict[t] = tp
		}
		if tp.grp < 0 {
			tp.grp = int32(len(groups))
			groups = append(groups, tp)
			if len(m.gpos) < len(groups) {
				m.gpos = append(m.gpos, nil)
			}
			m.gpos[tp.grp] = m.gpos[tp.grp][:0]
		}
		m.gpos[tp.grp] = append(m.gpos[tp.grp], int32(pos))
	}
	for g, tp := range groups {
		tp.enc = appendPosting(tp.enc, doc-tp.lastDoc, m.gpos[g])
		tp.df++
		tp.lastDoc, tp.grp = doc, -1
	}
	m.posts += len(groups)
	m.groups = groups
}

// docCount returns the number of documents in the memtable.
func (m *memSegment) docCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.ids)
}

// snapshotStats implements part.
func (m *memSegment) snapshotStats(distinct []string) partStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := partStats{docs: len(m.ids), totalLen: m.totalLen, df: make([]int, len(distinct))}
	for i, t := range distinct {
		st.df[i] = m.df(t)
	}
	return st
}

// searchPart implements part through searchEncoded, under the read
// lock.
func (m *memSegment) searchPart(q *partQuery, sc *scratch) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	searchEncoded(m, q, m.docLens, m.ids, sc)
}

// docFreq implements part.
func (m *memSegment) docFreq(t string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.df(t)
}

// coFreq implements part through coFreqEncoded, under the read lock.
func (m *memSegment) coFreq(ta, tb string, window int32, sc *scratch) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return coFreqEncoded(m, ta, tb, window, sc)
}

// df implements encodedPart; callers hold at least the read lock.
func (m *memSegment) df(t string) int {
	if tp := m.dict[t]; tp != nil {
		return tp.df
	}
	return 0
}

// postings implements encodedPart: the list decodes where it lies, so
// callers hold at least the read lock. add wrote every list, so a
// decode failure is a codec bug, not bad input.
func (m *memSegment) postings(t string, within []Posting, sc *scratch) []Posting {
	tp := m.dict[t]
	if tp == nil {
		return nil
	}
	pl, err := sc.decode(tp.enc, uint64(tp.df), within)
	if err != nil {
		panic(fmt.Sprintf("index: memtable list of %q does not decode: %v", t, err))
	}
	return pl
}

// sortedTerms returns the memtable's terms in sorted order, the order a
// segment file lists them in; callers hold at least the read lock. The
// sort is also what keeps the file layout deterministic — the same
// sealed batch always encodes to the same bytes, whatever the
// dictionary map's iteration order.
func (m *memSegment) sortedTerms() []string {
	terms := make([]string, 0, len(m.dict))
	for t := range m.dict {
		terms = append(terms, t)
	}
	slices.Sort(terms)
	return terms
}

// emit appends term t's list as a segment file holds it — its count,
// then the bytes add wrote — onto buf, for writeSegmentFrame; callers
// hold at least the read lock.
func (m *memSegment) emit(t string, buf []byte) ([]byte, int, error) {
	tp := m.dict[t]
	return append(binary.AppendUvarint(buf, uint64(tp.df)), tp.enc...), tp.df, nil
}

// size implements part.
func (m *memSegment) size() (docs, terms, postings int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.ids), len(m.dict), m.posts
}

// writer is one ingest lane of the segment engine. Documents are
// routed to a writer by docID hash, so writers never contend with each
// other — each owns its active memSegment outright ("lock-free" across
// lanes; within a lane a mutex orders appends against seals). The seen
// set spans everything ever routed here — flushed segments included —
// so duplicate detection survives seals, merges and reopens.
type writer struct {
	limit int // docs per memtable before a seal is requested
	mu    sync.Mutex
	seen  map[string]struct{}
	mem   *memSegment
}

func newWriter(limit int) *writer {
	return &writer{limit: limit, seen: make(map[string]struct{}), mem: newMemSegment()}
}

// add indexes one tokenized document and reports whether the active
// memtable has reached the seal threshold; a duplicate docID is
// reported instead of added.
func (w *writer) add(docID string, ts []string) (full, dup bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.seen[docID]; dup {
		return false, true
	}
	w.seen[docID] = struct{}{}
	w.mem.add(docID, ts)
	return w.mem.docCount() >= w.limit, false
}

// unheld keeps the documents of idx, indexes into docs, that were never
// routed to this writer, in order, under one lock.
func (w *writer) unheld(docs []Doc, idx []int) []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := idx[:0]
	for _, i := range idx {
		if _, ok := w.seen[docs[i].ID]; !ok {
			kept = append(kept, i)
		}
	}
	return kept
}

// has reports whether docID was ever routed to this writer.
func (w *writer) has(docID string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.seen[docID]
	return ok
}

// remember records a docID recovered from a committed segment at open
// time, so reopened engines detect duplicates across restarts.
func (w *writer) remember(docID string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seen[docID] = struct{}{}
}

// current returns the active memtable.
func (w *writer) current() *memSegment {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.mem
}

// swap replaces the active memtable with a fresh one and returns the
// sealed predecessor, or nil if the memtable is smaller than min docs
// (a racing seal already took it, or there is nothing to seal). The
// engine calls this under its view lock so searches never observe a
// document in zero parts.
func (w *writer) swap(min int) *memSegment {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.mem.docCount() < min || w.mem.docCount() == 0 {
		return nil
	}
	sealed := w.mem
	w.mem = newMemSegment()
	return sealed
}
