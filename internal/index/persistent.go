package index

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"etap/internal/obs"
	"etap/internal/textproc"
)

// Segment-engine traffic reports into the process-wide registry. The
// gauges describe the most recently updated engine (one daemon runs
// one persistent index); the counters and histograms accumulate across
// every engine in the process.
var (
	mSegCount = obs.Default.Gauge("etap_index_segment_count",
		"Committed on-disk segments in the live manifest.")
	mSegDocs = obs.Default.Gauge("etap_index_segment_docs",
		"Documents held by committed on-disk segments.")
	mSegBytes = obs.Default.Gauge("etap_index_segment_bytes",
		"Total bytes of committed on-disk segment files.")
	mMmapBytes = obs.Default.Gauge("etap_index_segment_mmap_bytes",
		"Bytes of segment files currently memory-mapped.")
	mSegFlushes = obs.Default.Counter("etap_index_segment_flushes_total",
		"Sealed memtables flushed and committed as segments.")
	mSegFlushFailures = obs.Default.Counter("etap_index_segment_flush_failures_total",
		"Flush attempts that failed; the sealed batch stays searchable in RAM.")
	mSegMerges = obs.Default.Counter("etap_index_segment_merges_total",
		"Background merges committed under the tiered policy.")
	mSegMergeFailures = obs.Default.Counter("etap_index_segment_merge_failures_total",
		"Merge attempts that failed; input segments remain live.")
	mSegReadFailures = obs.Default.Counter("etap_index_segment_read_failures_total",
		"Postings reads that failed against a segment verified at open.")
	mSegCleanupFailures = obs.Default.Counter("etap_index_segment_cleanup_failures_total",
		"Orphan or retired segment files that could not be removed.")
	mSegFlushDur = obs.Default.Histogram("etap_index_segment_flush_duration_seconds",
		"Wall time to encode, fsync and commit one sealed memtable.", nil)
	mSegMergeDur = obs.Default.Histogram("etap_index_segment_merge_duration_seconds",
		"Wall time to merge, fsync and commit one segment tier.", nil)
)

// DefaultFlushDocs is the per-writer memtable size, in documents, at
// which a batch seals and flushes when SegmentOptions.FlushDocs is 0.
// Larger batches amortise the per-flush encode/fsync/commit cost (bulk
// loads at this default outrun the in-RAM engine; see BENCH_index.json)
// at the price of more unflushed documents in RAM and a longer
// re-index window after a crash; latency-sensitive streaming ingest
// should configure a smaller batch (STORAGE.md §8).
const DefaultFlushDocs = 8192

// DefaultMergeFactor is the tiered merge policy's fan-in when
// SegmentOptions.MergeFactor is 0: a size tier holding this many
// segments is compacted into one segment of the next tier.
const DefaultMergeFactor = 8

// SegmentOptions configures OpenSegmentIndex.
type SegmentOptions struct {
	// Dir is the index directory. It is created if missing; if it
	// holds a manifest from a previous run, the committed segments are
	// re-opened and searchable immediately — no rebuild.
	Dir string
	// FlushDocs is the per-writer memtable seal threshold in
	// documents; 0 means DefaultFlushDocs.
	FlushDocs int
	// MergeFactor is the tiered merge fan-in; 0 means
	// DefaultMergeFactor, values below 2 are clamped to 2.
	MergeFactor int
	// Writers is the number of concurrent ingest lanes; 0 means
	// GOMAXPROCS, clamped to at least 1.
	Writers int
	// CacheSize is the query-result cache capacity in entries; 0 means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
}

// SegmentIndex is the persistent, segment-based search engine: the
// same query surface as the in-RAM Index (bit-identical ranked
// results, golden-tested) over immutable on-disk segments plus
// per-writer in-memory memtables. Documents are searchable the moment
// Add returns; sealed batches flush to disk in the background; a
// tiered merger compacts small segments; and the manifest commit
// protocol (STORAGE.md) makes restarts re-open segments instead of
// re-indexing the corpus.
//
// Add and all query methods are safe for concurrent use. Close flushes
// what is in memory and must not race other calls.
type SegmentIndex struct {
	dir         string
	flushDocs   int
	mergeFactor int
	gen         atomic.Uint64 // bumped on every Add; versions cache entries
	cache       *queryCache   // nil when disabled

	// mu guards the searchable view: the writers' active memtables
	// (swapped under it), the sealed-but-unflushed list, and the
	// committed segment list.
	mu      sync.RWMutex
	writers []*writer
	sealing []*memSegment
	segs    []*segment

	manifestMu sync.Mutex // serializes manifest commits
	man        manifest

	flushCh   chan *memSegment
	kickCh    chan struct{}
	stopCh    chan struct{}
	flushDone chan struct{}
	mergeDone chan struct{}

	errMu    sync.Mutex
	firstErr error
	closed   bool
}

// OpenSegmentIndex opens (or creates) the segment index in o.Dir:
// loads the manifest, verifies and mmaps every committed segment,
// removes orphaned files from interrupted flushes or merges, and
// starts the background flusher and merger.
func OpenSegmentIndex(o SegmentOptions) (*SegmentIndex, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("index: SegmentOptions.Dir is required")
	}
	if o.FlushDocs <= 0 {
		o.FlushDocs = DefaultFlushDocs
	}
	if o.MergeFactor == 0 {
		o.MergeFactor = DefaultMergeFactor
	}
	if o.MergeFactor < 2 {
		o.MergeFactor = 2
	}
	if o.Writers == 0 {
		o.Writers = runtime.GOMAXPROCS(0)
	}
	if o.Writers < 1 {
		o.Writers = 1
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	man, err := loadManifest(o.Dir)
	if err != nil {
		return nil, err
	}

	si := &SegmentIndex{
		dir:         o.Dir,
		flushDocs:   o.FlushDocs,
		mergeFactor: o.MergeFactor,
		man:         man,
		flushCh:     make(chan *memSegment, o.Writers+2),
		kickCh:      make(chan struct{}, 1),
		stopCh:      make(chan struct{}),
		flushDone:   make(chan struct{}),
		mergeDone:   make(chan struct{}),
	}
	switch {
	case o.CacheSize > 0:
		si.cache = newQueryCache(o.CacheSize)
	case o.CacheSize == 0:
		si.cache = newQueryCache(DefaultCacheSize)
	}
	si.writers = make([]*writer, o.Writers)
	for i := range si.writers {
		si.writers[i] = newWriter(o.FlushDocs)
	}

	// Re-open committed segments; any failure here is real corruption
	// (the commit protocol never publishes a manifest referencing a
	// torn segment), so the open fails loudly rather than serving a
	// partial corpus.
	for _, ent := range man.Segments {
		seg, err := openSegment(filepath.Join(o.Dir, ent.File), ent.ID, ent.Bytes, ent.CRC32)
		if err != nil {
			for _, s := range si.segs {
				si.destroySegment(s, false)
			}
			return nil, err
		}
		si.segs = append(si.segs, seg)
		// Duplicate detection must span restarts: route every
		// recovered docID back to its owning lane's seen set.
		for _, id := range seg.ids {
			si.writerFor(id).remember(id)
		}
	}
	cleanOrphans(o.Dir, man)

	go si.flushLoop()
	go si.mergeLoop()
	si.kickMerger() // a reopened index may be behind the merge policy
	si.updateGauges()
	return si, nil
}

// writerFor routes a document ID to its owning ingest lane.
func (si *SegmentIndex) writerFor(docID string) *writer {
	return si.writers[si.laneOf(docID)]
}

// laneOf routes a document ID to its owning lane's index.
func (si *SegmentIndex) laneOf(docID string) int {
	if len(si.writers) == 1 {
		return 0
	}
	return int(route(docID) % uint64(len(si.writers)))
}

// laneCount returns the writer-lane count, for bulkLoad.
func (si *SegmentIndex) laneCount() int { return len(si.writers) }

// unheld implements lanes through the writer's seen set.
func (si *SegmentIndex) unheld(l int, docs []Doc, idx []int) []int {
	return si.writers[l].unheld(docs, idx)
}

// appendDoc adds a tokenized document to lane l's memtable, reporting
// a duplicate ID instead; seals and hands the batch to the background
// flusher when the memtable reaches the flush threshold; and
// invalidates the query cache by advancing the engine generation.
func (si *SegmentIndex) appendDoc(l int, docID string, ts []string) (dup bool) {
	w := si.writers[l]
	full, dup := w.add(docID, ts)
	if dup {
		return true
	}
	if full {
		if sealed := si.seal(w, si.flushDocs); sealed != nil {
			si.flushCh <- sealed // blocks when the flusher is behind: ingest backpressure
		}
	}
	si.gen.Add(1)
	return false
}

// Add indexes a document: tokenize outside any lock, append to the
// owning writer's memtable (searchable the moment this returns), and
// seal + hand the batch to the background flusher when the memtable
// reaches the flush threshold. Adding the same docID twice panics,
// matching the in-RAM engine; the seen set spans committed segments,
// so the contract holds across restarts too. Every Add invalidates the
// query cache by advancing the engine generation. Like Index.Add, it
// reads parts as one text with a space between them.
func (si *SegmentIndex) Add(docID string, parts ...string) {
	sc := textproc.GetScratch()
	dup := si.appendDoc(si.laneOf(docID), docID, scanTerms(sc, parts))
	sc.Release()
	if dup {
		panic("index: duplicate document " + docID)
	}
}

// AddDocs indexes docs lane by lane (see bulkLoad): each writer lane
// skips the documents it already holds — those recovered from
// committed segments included — and appends the rest in order, so
// every memtable holds its documents in docs order, while tokenization
// runs on every core. The result is that of calling Add for each
// document not yet indexed, in order.
func (si *SegmentIndex) AddDocs(docs []Doc) { bulkLoad(si, docs) }

// seal swaps w's memtable under the view lock — searches never observe
// a document in zero parts — and registers the sealed batch as still
// searchable until its segment commits. Returns nil if a racing seal
// already took the batch or it holds fewer than min documents.
func (si *SegmentIndex) seal(w *writer, min int) *memSegment {
	si.mu.Lock()
	defer si.mu.Unlock()
	sealed := w.swap(min)
	if sealed != nil {
		si.sealing = append(si.sealing, sealed)
	}
	return sealed
}

// Has reports whether docID is indexed — in a committed segment or a
// live memtable.
func (si *SegmentIndex) Has(docID string) bool {
	return si.writerFor(docID).has(docID)
}

// Search ranks documents matching the query and returns the top k (all
// matches when k <= 0), exactly like Index.Search.
//
//etaplint:ignore context-plumbing -- in-memory and page-cache lookup: no cancellable I/O, and a ctx parameter would suggest otherwise
func (si *SegmentIndex) Search(query string, k int) []Hit {
	return si.SearchQuery(ParseQuery(query), k)
}

// SearchQuery is Search over a pre-parsed query: cache lookup first,
// then the shared two-phase resolve across memtables, sealed batches
// and on-disk segments. Results are identical — order and score — to
// the in-RAM engine over the same documents.
//
//etaplint:ignore context-plumbing -- in-memory and page-cache lookup: no cancellable I/O, and a ctx parameter would suggest otherwise
func (si *SegmentIndex) SearchQuery(q Query, k int) []Hit {
	mQueries.Inc()

	allTerms, phrases := flattenQuery(q)
	if len(allTerms) == 0 {
		return nil
	}

	var key string
	gen := si.gen.Load()
	if si.cache != nil {
		key = cacheKey(q, k)
		if hits, ok := si.cache.get(key, gen); ok {
			return hits
		}
	}

	parts, release := si.snapshot()
	hits := resolveParts(parts, allTerms, phrases, k, true)
	release()

	if si.cache != nil {
		// Versioned under the generation read before resolving: if an
		// Add raced the search, the entry is already stale and the
		// next get drops it. Flushes and merges deliberately do NOT
		// advance the generation — they move documents between parts
		// without changing results, so cached entries stay valid.
		si.cache.put(key, gen, hits)
	}
	return hits
}

// snapshot captures the current searchable view — every writer's
// active memtable, the sealed-but-unflushed batches, and the committed
// segments — pinning the segments against concurrent retirement. The
// returned release must be called exactly once when reads finish; the
// last reader of a merged-away segment closes and deletes it.
func (si *SegmentIndex) snapshot() ([]part, func()) {
	si.mu.RLock()
	parts := make([]part, 0, len(si.writers)+len(si.sealing)+len(si.segs))
	for _, w := range si.writers {
		parts = append(parts, w.current())
	}
	for _, m := range si.sealing {
		parts = append(parts, m)
	}
	segs := make([]*segment, len(si.segs))
	copy(segs, si.segs)
	for _, s := range segs {
		s.refs.Add(1)
		parts = append(parts, s)
	}
	si.mu.RUnlock()
	release := func() {
		for _, s := range segs {
			if s.refs.Add(-1) == 0 && s.retired.Load() {
				si.destroySegment(s, true)
			}
		}
	}
	return parts, release
}

// destroySegment closes a segment's mapping exactly once and, for
// retired segments, removes its file. Errors are recorded (close) or
// counted (remove) — by this point the data lives elsewhere.
func (si *SegmentIndex) destroySegment(s *segment, remove bool) {
	s.destroyOnce.Do(func() {
		if err := s.close(); err != nil {
			si.noteErr(err)
		}
		if remove {
			if err := os.Remove(s.path); err != nil {
				mSegCleanupFailures.Inc()
			}
		}
	})
}

// DocFreq returns the document frequency of a term (normalized like
// document text), used by the PMI-IR lexicon induction.
func (si *SegmentIndex) DocFreq(term string) int {
	ts := terms(term)
	if len(ts) == 0 {
		return 0
	}
	parts, release := si.snapshot()
	defer release()
	n := 0
	for _, p := range parts {
		n += p.docFreq(ts[0])
	}
	return n
}

// CoDocFreq returns the number of documents containing both terms —
// whole-document co-occurrence.
func (si *SegmentIndex) CoDocFreq(a, b string) int {
	return si.CoNearFreq(a, b, 0)
}

// CoNearFreq returns the number of documents where the two terms occur
// within `window` token positions of each other. window <= 0 degrades
// to CoDocFreq.
func (si *SegmentIndex) CoNearFreq(a, b string, window int) int {
	parts, release := si.snapshot()
	defer release()
	return coFreq(parts, a, b, window)
}

// Len returns the number of indexed documents across memtables and
// segments.
func (si *SegmentIndex) Len() int {
	parts, release := si.snapshot()
	defer release()
	n := 0
	for _, p := range parts {
		d, _, _ := p.size()
		n += d
	}
	return n
}

// IndexStats returns current engine statistics. Shards reports the
// writer-lane count; Segments the committed on-disk segment count.
func (si *SegmentIndex) IndexStats() Stats {
	parts, release := si.snapshot()
	defer release()
	st := Stats{Shards: len(si.writers)}
	for _, p := range parts {
		d, t, ps := p.size()
		st.Docs += d
		st.Terms += t
		st.Postings += ps
	}
	si.mu.RLock()
	st.Segments = len(si.segs)
	si.mu.RUnlock()
	if si.cache != nil {
		st.CacheEntries = si.cache.len()
	}
	return st
}

// SegmentIndexStats is the segment engine's operational summary beyond
// the shared Stats: what the manifest has committed and what is still
// memory-only.
type SegmentIndexStats struct {
	// Dir is the index directory.
	Dir string
	// Generation is the committed manifest generation.
	Generation uint64
	// Segments is the number of committed on-disk segments.
	Segments int
	// SegmentDocs is the number of documents in committed segments.
	SegmentDocs int
	// SegmentBytes is the total size of committed segment files.
	SegmentBytes int64
	// MemtableDocs is the number of documents not yet flushed (active
	// plus sealed memtables); these are searchable but not durable.
	MemtableDocs int
}

// SegmentStats returns the engine's segment-level summary.
func (si *SegmentIndex) SegmentStats() SegmentIndexStats {
	si.manifestMu.Lock()
	gen := si.man.Generation
	si.manifestMu.Unlock()
	si.mu.RLock()
	defer si.mu.RUnlock()
	st := SegmentIndexStats{Dir: si.dir, Generation: gen, Segments: len(si.segs)}
	for _, s := range si.segs {
		st.SegmentDocs += len(s.ids)
		st.SegmentBytes += s.bytes
	}
	for _, w := range si.writers {
		st.MemtableDocs += w.current().docCount()
	}
	for _, m := range si.sealing {
		st.MemtableDocs += m.docCount()
	}
	return st
}

// DocIDs returns every indexed document ID in sorted order — committed
// segments, sealed batches and active memtables alike. Intended for
// recovery verification and operational inspection, not hot paths.
func (si *SegmentIndex) DocIDs() []string {
	parts, release := si.snapshot()
	defer release()
	var out []string
	for _, p := range parts {
		switch v := p.(type) {
		case *segment:
			out = append(out, v.ids...)
		case *memSegment:
			v.mu.RLock()
			out = append(out, v.ids...)
			v.mu.RUnlock()
		}
	}
	sort.Strings(out)
	return out
}

// Err returns the first background flush/merge error the engine has
// recorded, if any. A non-nil Err means some sealed data may be
// memory-only; see the OPERATIONS.md runbook.
func (si *SegmentIndex) Err() error {
	si.errMu.Lock()
	defer si.errMu.Unlock()
	return si.firstErr
}

// noteErr records the first background error for Err and Close.
func (si *SegmentIndex) noteErr(err error) {
	si.errMu.Lock()
	defer si.errMu.Unlock()
	if si.firstErr == nil {
		si.firstErr = err
	}
}

// Close seals and flushes every memtable, drains the flusher, stops
// the merger, and releases all segment mappings. The index on disk is
// complete and re-openable when Close returns. Close must not race Add
// or queries; it is idempotent.
func (si *SegmentIndex) Close() error {
	si.errMu.Lock()
	if si.closed {
		si.errMu.Unlock()
		return si.firstErr
	}
	si.closed = true
	si.errMu.Unlock()

	for _, w := range si.writers {
		if sealed := si.seal(w, 1); sealed != nil {
			si.flushCh <- sealed
		}
	}
	close(si.flushCh)
	<-si.flushDone
	close(si.stopCh)
	<-si.mergeDone

	si.mu.Lock()
	segs := si.segs
	si.segs = nil
	si.mu.Unlock()
	for _, s := range segs {
		si.destroySegment(s, false)
	}
	return si.Err()
}

// flushLoop drains sealed memtables into committed segments, one at a
// time — commits are serialized, so the manifest only ever moves
// forward.
func (si *SegmentIndex) flushLoop() {
	defer close(si.flushDone)
	for m := range si.flushCh {
		si.flushOne(m)
	}
}

// flushOne encodes one sealed memtable into a segment file, makes it
// durable, commits the manifest, and swaps the batch's searchable home
// from RAM to disk. On any failure the sealed batch simply stays in
// the searchable sealing list — queries lose nothing, durability is
// retried never (the failure is recorded and counted; see the
// disk-pressure runbook).
func (si *SegmentIndex) flushOne(m *memSegment) {
	//etaplint:ignore determinism -- metrics-only timing: the timestamp feeds the flush-duration histogram, never a result
	start := time.Now()

	si.manifestMu.Lock()
	id := si.man.NextID
	file := segmentFileName(id)
	tmpPath := filepath.Join(si.dir, file+tmpSuffix)
	ws, err := writeSegmentFile(tmpPath, m)
	if err == nil {
		// Durable data first, then the name, then the directory entry:
		// only after all three may the manifest reference the file.
		if err = os.Rename(tmpPath, filepath.Join(si.dir, file)); err == nil {
			err = syncDir(si.dir)
		}
	}
	if err != nil {
		si.manifestMu.Unlock()
		si.noteErr(err)
		mSegFlushFailures.Inc()
		return
	}
	seg, err := installSegment(filepath.Join(si.dir, file), id, ws)
	if err != nil {
		// The file is in place but unreadable — do not commit it; the
		// next open's orphan sweep removes it.
		si.manifestMu.Unlock()
		si.noteErr(err)
		mSegFlushFailures.Inc()
		return
	}
	next := si.man
	next.NextID = id + 1
	next.Generation++
	next.Segments = append(append([]manifestSegment(nil), si.man.Segments...), manifestSegment{
		ID: id, File: file, Docs: ws.meta.docs, Bytes: ws.meta.bytes, CRC32: ws.meta.crc,
	})
	if err := commitManifest(si.dir, next); err != nil {
		si.manifestMu.Unlock()
		si.destroySegment(seg, false)
		si.noteErr(err)
		mSegFlushFailures.Inc()
		return
	}
	si.man = next
	si.manifestMu.Unlock()

	// Swap the batch's searchable home: segment in, sealed memtable
	// out, atomically under the view lock. slices.Delete zeroes the
	// vacated slot, so the backing array does not pin the flushed batch.
	si.mu.Lock()
	if i := slices.Index(si.sealing, m); i >= 0 {
		si.sealing = slices.Delete(si.sealing, i, i+1)
	}
	si.segs = append(si.segs, seg)
	si.mu.Unlock()

	mSegFlushes.Inc()
	mSegFlushDur.ObserveSince(start)
	si.updateGauges()
	si.kickMerger()
}

// kickMerger nudges the background merger without blocking.
func (si *SegmentIndex) kickMerger() {
	select {
	case si.kickCh <- struct{}{}:
	default:
	}
}

// updateGauges refreshes the segment gauges from the current view.
func (si *SegmentIndex) updateGauges() {
	si.mu.RLock()
	defer si.mu.RUnlock()
	var docs int
	var bytes int64
	for _, s := range si.segs {
		docs += len(s.ids)
		bytes += s.bytes
	}
	mSegCount.Set(int64(len(si.segs)))
	mSegDocs.Set(int64(docs))
	mSegBytes.Set(bytes)
}
