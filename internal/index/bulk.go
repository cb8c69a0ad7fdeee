package index

import (
	"sync"

	"etap/internal/par"
	"etap/internal/textproc"
)

// Doc is one document of a bulk load (Engine.AddDocs): its ID and the
// parts Add would take, read as one text with a space between parts.
type Doc struct {
	ID    string
	Parts []string
}

// bulkChunk is how many of one lane's documents a bulk-load worker
// tokenizes before it takes the lane's turn and appends them. A turn
// costs a lock round trip and sometimes a wait, so it is paid per chunk
// rather than per document; a chunk's terms are the worker's only
// buffer.
const bulkChunk = 32

// lanes is what a bulk load needs of an engine: its writer lanes (the
// segment engine) or shards (the in-RAM engine), each appended to by
// one goroutine at a time.
type lanes interface {
	// laneCount returns the number of lanes.
	laneCount() int
	// laneOf routes a document ID to its lane.
	laneOf(docID string) int
	// unheld keeps the documents of idx, indexes into docs routed to
	// lane l, that the lane does not hold, in order.
	unheld(l int, docs []Doc, idx []int) []int
	// appendDoc adds one tokenized document to lane l and reports a
	// duplicate ID instead of adding it.
	appendDoc(l int, docID string, terms []string) (dup bool)
}

// bulkLoad indexes docs through e's lanes, lane by lane. Each document
// is routed to its lane, and each lane first drops the documents it
// already holds (a reopened segment engine's recovered ones), all under
// one lock per lane. Workers then tokenize chunks of one lane's
// documents in parallel, and each lane appends its chunks in document
// order, one chunk at a time: no two workers append to a lane at once,
// every lane holds its documents in the order docs lists them, and
// tokenization is spread over every core whatever the lane count.
// Chunks are handed out round robin across lanes, so with as many lanes
// as workers a worker seldom waits for a lane's turn.
//
// An ID that occurs twice in docs panics, on the caller's goroutine
// once the load has finished, naming the first such document.
func bulkLoad(e lanes, docs []Doc) {
	n := e.laneCount()
	byLane := make([][]int, n)
	for i := range docs {
		l := e.laneOf(docs[i].ID)
		byLane[l] = append(byLane[l], i)
	}
	par.For(0, n, func(l int) { byLane[l] = e.unheld(l, docs, byLane[l]) })

	type chunk struct {
		lane, seq int
		idx       []int
	}
	var chunks []chunk
	for seq, more := 0, true; more; seq++ {
		more = false
		for l, idx := range byLane {
			lo := seq * bulkChunk
			if lo < len(idx) {
				chunks = append(chunks, chunk{l, seq, idx[lo:min(lo+bulkChunk, len(idx))]})
				more = true
			}
		}
	}

	t := turns{next: make([]int, n)}
	t.cond.L = &t.mu
	dup := -1
	par.For(0, len(chunks), func(c int) {
		ch := chunks[c]
		buf := chunkPool.Get().(*chunkTerms)
		sc := textproc.GetScratch()
		for _, i := range ch.idx {
			buf.terms = append(buf.terms, scanTerms(sc, docs[i].Parts)...)
			buf.ends = append(buf.ends, len(buf.terms))
		}
		sc.Release()
		t.wait(ch.lane, ch.seq)
		from := 0
		for k, i := range ch.idx {
			if e.appendDoc(ch.lane, docs[i].ID, buf.terms[from:buf.ends[k]]) {
				t.mu.Lock()
				if dup < 0 || i < dup {
					dup = i
				}
				t.mu.Unlock()
			}
			from = buf.ends[k]
		}
		t.done(ch.lane)
		buf.release()
	})
	if dup >= 0 {
		panic("index: duplicate document " + docs[dup].ID)
	}
}

// turns orders the appends of a bulk load: next[l] is the sequence
// number of the chunk lane l appends next.
type turns struct {
	mu   sync.Mutex
	cond sync.Cond
	next []int
}

// wait blocks until it is chunk seq's turn on lane l.
func (t *turns) wait(l, seq int) {
	t.mu.Lock()
	for t.next[l] != seq {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// done passes lane l's turn to its next chunk.
func (t *turns) done(l int) {
	t.mu.Lock()
	t.next[l]++
	t.mu.Unlock()
	t.cond.Broadcast()
}

// chunkTerms holds one chunk's tokenized documents: document k's terms
// are terms[ends[k-1]:ends[k]].
type chunkTerms struct {
	terms []string
	ends  []int
}

var chunkPool = sync.Pool{New: func() any { return new(chunkTerms) }}

// release empties b and returns it to the pool. Number terms slice the
// page text, so the terms are cleared: a pooled buffer keeps no page
// reachable.
func (b *chunkTerms) release() {
	clear(b.terms)
	b.terms, b.ends = b.terms[:0], b.ends[:0]
	chunkPool.Put(b)
}
