package index

import "sync"

// memSegment is an active in-memory segment: the mutable batch one
// writer accumulates before it is sealed and flushed to disk. Its
// shape mirrors the on-disk format — one postings list per term, in
// part-local doc order — so sealing is a sort of the term dictionary
// plus a straight encode, with no per-document restructuring.
//
// Unlike shard.add, add appends tokens directly into the per-term
// lists with no per-document scratch map: one dictionary lookup per
// token, positions appended in place. That makes the segment engine's
// ingest path cheaper than the in-RAM engine's even before flushing
// frees the batch from the garbage collector's working set.
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
}

// memPostings is one term's growing postings list. The pointer
// indirection keeps the dictionary's values stable while lists grow.
type memPostings struct {
	pl []Posting
}

func newMemSegment() *memSegment {
	return &memSegment{dict: make(map[string]*memPostings)}
}

// add appends one tokenized document. Documents get ascending
// part-local IDs; the caller (writer) guarantees docID uniqueness.
func (m *memSegment) add(docID string, ts []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	doc := int32(len(m.ids))
	m.ids = append(m.ids, docID)
	m.docLens = append(m.docLens, float64(len(ts)))
	m.totalLen += float64(len(ts))
	for pos, t := range ts {
		tp := m.dict[t]
		if tp == nil {
			tp = &memPostings{}
			m.dict[t] = tp
		}
		if n := len(tp.pl); n == 0 || tp.pl[n-1].Doc != doc {
			tp.pl = append(tp.pl, Posting{Doc: doc})
			m.posts++
		}
		last := &tp.pl[len(tp.pl)-1]
		last.Positions = append(last.Positions, int32(pos))
	}
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
		if tp := m.dict[t]; tp != nil {
			st.df[i] = len(tp.pl)
		}
	}
	return st
}

// searchPart implements part through the shared matchAndScore
// algorithm, under the read lock.
func (m *memSegment) searchPart(q *partQuery, sc *scratch) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, t := range q.distinct {
		sc.lists = append(sc.lists, m.listOf(t))
	}
	matchAndScore(q, sc.lists, m.docLens, m.ids, sc)
}

// docFreq implements part.
func (m *memSegment) docFreq(t string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if tp := m.dict[t]; tp != nil {
		return len(tp.pl)
	}
	return 0
}

// coFreq implements part; it needs no scratch.
func (m *memSegment) coFreq(ta, tb string, window int32, _ *scratch) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return countCo(m.listOf(ta), m.listOf(tb), window)
}

// listOf returns a term's postings list; callers hold at least the
// read lock.
func (m *memSegment) listOf(t string) []Posting {
	if tp := m.dict[t]; tp != nil {
		return tp.pl
	}
	return nil
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
// memtable has reached the seal threshold. Duplicate docIDs panic,
// matching the in-RAM engine's contract.
func (w *writer) add(docID string, ts []string) (full bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.seen[docID]; dup {
		panic("index: duplicate document " + docID)
	}
	w.seen[docID] = struct{}{}
	w.mem.add(docID, ts)
	return w.mem.docCount() >= w.limit
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
