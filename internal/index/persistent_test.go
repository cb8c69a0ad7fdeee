package index

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildSegmentIndex opens a segment engine in a test temp dir, loads
// docs, and registers cleanup.
func buildSegmentIndex(t *testing.T, o SegmentOptions, docs []corpusDoc) *SegmentIndex {
	t.Helper()
	if o.Dir == "" {
		o.Dir = t.TempDir()
	}
	si, err := OpenSegmentIndex(o)
	if err != nil {
		t.Fatalf("OpenSegmentIndex: %v", err)
	}
	t.Cleanup(func() { si.Close() })
	for _, d := range docs {
		si.Add(d.id, d.text)
	}
	return si
}

// TestSegmentEngineMatchesModel pins the durable engine's equivalence
// property: for every writer count and flush size — including
// configurations that force many flushes and background merges — the
// engine returns bit-identical ranked hits (order AND score) to the
// brute-force model over the same corpus.
func TestSegmentEngineMatchesModel(t *testing.T) {
	n := 50000
	if testing.Short() {
		n = 4000
	}
	docs := syntheticCorpus(n, 42)
	m := newIndexModel()
	for _, d := range docs {
		m.add(d.id, d.text)
	}

	for _, cfg := range []SegmentOptions{
		{Writers: 1, FlushDocs: 1 << 30},             // everything stays in one memtable
		{Writers: 1, FlushDocs: 500},                 // many flushes, tiered merges
		{Writers: 2, FlushDocs: 700, MergeFactor: 2}, // aggressive merging
		{Writers: 4, FlushDocs: 997},
		{Writers: 8, FlushDocs: 256, MergeFactor: 3, CacheSize: -1},
	} {
		cfg := cfg
		name := fmt.Sprintf("w%d_f%d_m%d", cfg.Writers, cfg.FlushDocs, cfg.MergeFactor)
		t.Run(name, func(t *testing.T) {
			si := buildSegmentIndex(t, cfg, docs)
			checkAgainstModel(t, si, m, goldenQueries, []int{25})
			if err := si.Err(); err != nil {
				t.Fatalf("background error: %v", err)
			}
		})
	}
}

// TestSegmentReopenServesCommitted pins the restart contract: Close
// flushes everything, and a reopened engine serves the full corpus —
// golden-identical hits, duplicate detection intact — without
// re-adding a single document.
func TestSegmentReopenServesCommitted(t *testing.T) {
	docs := syntheticCorpus(3000, 43)
	dir := t.TempDir()

	first, err := OpenSegmentIndex(SegmentOptions{Dir: dir, Writers: 3, FlushDocs: 250, MergeFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		first.Add(d.id, d.text)
	}
	var want [][]Hit
	for _, q := range goldenQueries {
		want = append(want, first.Search(q, 20))
	}
	if err := first.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen with a different writer topology — lane assignment must
	// not affect recovery or results.
	second, err := OpenSegmentIndex(SegmentOptions{Dir: dir, Writers: 5, FlushDocs: 250})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer second.Close()

	if second.Len() != len(docs) {
		t.Fatalf("reopened Len = %d, want %d", second.Len(), len(docs))
	}
	st := second.SegmentStats()
	if st.MemtableDocs != 0 {
		t.Fatalf("reopened engine holds %d memtable docs; everything should be committed", st.MemtableDocs)
	}
	if st.Segments == 0 || st.Generation == 0 {
		t.Fatalf("reopened engine reports no committed state: %+v", st)
	}
	for i, q := range goldenQueries {
		got := second.Search(q, 20)
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("query %q diverges after reopen", q)
		}
	}
	// Duplicate detection must span the restart.
	if !second.Has(docs[0].id) {
		t.Fatalf("Has(%q) = false after reopen", docs[0].id)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("re-adding a recovered docID did not panic")
			}
		}()
		second.Add(docs[0].id, "duplicate")
	}()
	// And the reopened engine must accept new documents.
	second.Add("doc-new", "fresh document after restart")
	if !second.Has("doc-new") {
		t.Fatal("Has(doc-new) = false")
	}
}

// TestSegmentMergeCompacts verifies the tiered merger actually runs:
// with mergeFactor 2 and many small flushes, the committed segment
// count must drop well below the flush count, and every merge must
// preserve the corpus.
func TestSegmentMergeCompacts(t *testing.T) {
	docs := syntheticCorpus(4000, 44)
	si := buildSegmentIndex(t, SegmentOptions{Dir: t.TempDir(), Writers: 1, FlushDocs: 100, MergeFactor: 2}, docs)

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := si.SegmentStats()
		// 4000 docs / 100-doc flushes = 40 flushes; a working factor-2
		// merger keeps the live count logarithmic.
		if st.Segments > 0 && st.Segments <= 12 && st.SegmentDocs+st.MemtableDocs == len(docs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("merger never compacted: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := si.Err(); err != nil {
		t.Fatalf("background error: %v", err)
	}
	if si.Len() != len(docs) {
		t.Fatalf("Len = %d after merges, want %d", si.Len(), len(docs))
	}
	// Retired segment files must eventually disappear from disk. A
	// merge mid-commit briefly has its output renamed into place before
	// the manifest references it, so poll until disk and manifest agree.
	for {
		ents, err := os.ReadDir(si.dir)
		if err != nil {
			t.Fatal(err)
		}
		var segFiles int
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), segmentSuffix) {
				segFiles++
			}
		}
		st := si.SegmentStats()
		if segFiles == st.Segments {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d segment files on disk, manifest commits %d", segFiles, st.Segments)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSegmentDocIDs checks the recovery-verification helper: every
// added ID, sorted, regardless of which part currently holds it.
func TestSegmentDocIDs(t *testing.T) {
	docs := syntheticCorpus(500, 45)
	si := buildSegmentIndex(t, SegmentOptions{Dir: t.TempDir(), Writers: 3, FlushDocs: 64}, docs)
	want := make([]string, len(docs))
	for i, d := range docs {
		want[i] = d.id
	}
	sort.Strings(want)
	if got := si.DocIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DocIDs mismatch: %d ids, want %d", len(got), len(want))
	}
}

// TestSegmentCacheInvalidation checks the cache contract on a durable
// engine: an Add between two identical queries must invalidate, while
// flushes and merges (which do not change results) must not prevent
// hits.
func TestSegmentCacheInvalidation(t *testing.T) {
	si := buildSegmentIndex(t, SegmentOptions{Dir: t.TempDir(), Writers: 1, FlushDocs: 4}, nil)
	si.Add("a", "acme acquired a new ceo")
	si.Add("b", "widget corp announced record revenue")

	first := si.Search("acme", 10)
	if _, ok := si.cache.get(cacheKey(ParseQuery("acme"), 10), si.gen.Load()); !ok {
		t.Fatal("query result was not cached")
	}
	second := si.Search("acme", 10)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached result differs")
	}

	si.Add("c", "acme acquired widget corp")
	third := si.Search("acme", 10)
	if len(third) != 2 {
		t.Fatalf("post-add query returned %d hits, want 2 (stale cache?)", len(third))
	}
}

// TestSegmentConcurrentIngestSearchMerge exercises ingest, search and
// background flush/merge simultaneously; run under -race this is the
// engine's data-race gate. Every search must see a consistent view —
// never an error, never a duplicate hit.
func TestSegmentConcurrentIngestSearchMerge(t *testing.T) {
	docs := syntheticCorpus(2500, 46)
	si, err := OpenSegmentIndex(SegmentOptions{Dir: t.TempDir(), Writers: 4, FlushDocs: 50, MergeFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(docs); i += 4 {
				si.Add(docs[i].id, docs[i].text)
			}
		}(g)
	}
	var searchWG sync.WaitGroup
	for g := 0; g < 3; g++ {
		searchWG.Add(1)
		go func(g int) {
			defer searchWG.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				hits := si.Search(goldenQueries[rng.Intn(len(goldenQueries))], 15)
				seen := make(map[string]bool, len(hits))
				for _, h := range hits {
					if seen[h.DocID] {
						t.Errorf("duplicate hit %q in one result set", h.DocID)
						return
					}
					seen[h.DocID] = true
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	searchWG.Wait()

	if si.Len() != len(docs) {
		t.Fatalf("Len = %d, want %d", si.Len(), len(docs))
	}
	if err := si.Err(); err != nil {
		t.Fatalf("background error: %v", err)
	}
}

// TestSegmentOptionsValidation covers defaulting.
func TestSegmentOptionsValidation(t *testing.T) {
	si, err := OpenSegmentIndex(SegmentOptions{Dir: filepath.Join(t.TempDir(), "nested", "idx"), MergeFactor: 1, Writers: -3})
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()
	if si.mergeFactor != 2 || len(si.writers) != 1 || si.flushDocs != DefaultFlushDocs {
		t.Fatalf("defaults not applied: mf=%d writers=%d flush=%d", si.mergeFactor, len(si.writers), si.flushDocs)
	}
}

// TestMemoryOnlyEngine pins what an empty Dir opens: an engine that
// loads and searches like a durable one, but keeps every document in
// its memtables, creates nothing on disk, starts no goroutine that
// outlives its calls, and closes — twice — to nil.
func TestMemoryOnlyEngine(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	cwd, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	docs := syntheticCorpus(2000, 48)
	si, err := OpenSegmentIndex(SegmentOptions{Writers: 3, FlushDocs: 10, MergeFactor: 2})
	if err != nil {
		t.Fatalf("empty Dir: %v", err)
	}
	si.AddDocs(asDocs(docs[:1500]))
	for _, d := range docs[1500:] {
		si.Add(d.id, d.text)
	}
	m := newIndexModel()
	for _, d := range docs {
		m.add(d.id, d.text)
	}
	checkAgainstModel(t, si, m, goldenQueries, []int{0, 10})
	st := si.SegmentStats()
	if st.Dir != "" || st.Generation != 0 || st.Segments != 0 || st.SegmentDocs != 0 || st.MemtableDocs != len(docs) {
		t.Fatalf("memory-only engine stats = %+v, want every one of %d documents in memtables", st, len(docs))
	}
	if si.Len() != len(docs) || si.IndexStats().Segments != 0 {
		t.Fatalf("Len = %d, Stats = %+v", si.Len(), si.IndexStats())
	}
	for i := 0; i < 2; i++ {
		if err := si.Close(); err != nil {
			t.Fatalf("Close #%d = %v", i+1, err)
		}
	}

	// Fan-out and bulk-load workers finish with the calls that start
	// them, so the count returns to where it was.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the engine's calls (%d before it opened)", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Fatalf("the engine wrote %d entries to TMPDIR (%v)", len(ents), err)
	}
	after, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(cwd) {
		t.Fatalf("the working directory went from %d to %d entries", len(cwd), len(after))
	}
}

// TestSegmentCloseIdempotent double-closes and reopens.
func TestSegmentCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	si, err := OpenSegmentIndex(SegmentOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	si.Add("x", "hello world")
	if err := si.Close(); err != nil {
		t.Fatal(err)
	}
	if err := si.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenSegmentIndex(SegmentOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != 1 || !again.Has("x") {
		t.Fatalf("reopen after double close lost data: len=%d", again.Len())
	}
}
