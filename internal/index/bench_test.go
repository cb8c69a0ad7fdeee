package index

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// benchCorpusSize is the corpus the index benchmarks run against — big
// enough (>=50k docs) that per-query work dominates goroutine overhead.
const benchCorpusSize = 50000

var (
	benchDocsOnce sync.Once
	benchDocs     []corpusDoc
)

func benchCorpus() []corpusDoc {
	benchDocsOnce.Do(func() { benchDocs = syntheticCorpus(benchCorpusSize, 1234) })
	return benchDocs
}

// loadSequential replays the pre-segment single-threaded build: one
// in-RAM shard, one goroutine. This is the baseline every bulk-add
// speedup in BENCH_index.json is measured against.
func loadSequential(docs []corpusDoc) *Index {
	ix := NewWithOptions(Options{Shards: 1, CacheSize: -1})
	for _, d := range docs {
		ix.Add(d.id, d.text)
	}
	return ix
}

// loadSegments bulk-loads the persistent segment engine with `writers`
// concurrent goroutines striding the corpus, default flush/merge
// policy. The engine is returned with every document searchable
// (memtables count); durability of the tail batch comes with Close.
func loadSegments(tb testing.TB, dir string, docs []corpusDoc, writers int) *SegmentIndex {
	si, err := OpenSegmentIndex(SegmentOptions{Dir: dir, Writers: writers, CacheSize: -1})
	if err != nil {
		tb.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(docs); i += writers {
				si.Add(docs[i].id, docs[i].text)
			}
		}(g)
	}
	wg.Wait()
	return si
}

// BenchmarkIndexBulkAdd compares the sequential in-RAM build against
// the segment engine's concurrent bulk load on the same corpus.
func BenchmarkIndexBulkAdd(b *testing.B) {
	docs := benchCorpus()[:10000]
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loadSequential(docs)
		}
	})
	b.Run("segments", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			si := loadSegments(b, b.TempDir(), docs, runtime.GOMAXPROCS(0))
			if err := si.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexSearch compares query throughput: the in-RAM engine,
// the segment engine serving from committed on-disk segments, and the
// segment engine with its query cache enabled; cooccur times the
// PMI-IR NEAR count (never cached) on the segment engine. Allocations
// are reported for every case.
func BenchmarkIndexSearch(b *testing.B) {
	docs := benchCorpus()
	single := loadSequential(docs)

	dir := b.TempDir()
	if err := loadSegments(b, dir, docs, runtime.GOMAXPROCS(0)).Close(); err != nil {
		b.Fatal(err)
	}
	segs, err := OpenSegmentIndex(SegmentOptions{Dir: dir, CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer segs.Close()
	cached, err := OpenSegmentIndex(SegmentOptions{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer cached.Close()

	run := func(ix Engine) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchHits = ix.Search(goldenQueries[i%len(goldenQueries)], 10)
			}
		}
	}
	b.Run("in-ram", run(single))
	b.Run("segments", run(segs))
	b.Run("segments-cached", run(cached))
	b.Run("cooccur", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := digestPairs[i%len(digestPairs)]
			benchCount = segs.CoNearFreq(p[0], p[1], 10)
		}
	})
}

// Sinks for benchmark results, so the measured calls are not optimized
// away.
var (
	benchHits  []Hit
	benchCount int
)

// benchReport is the schema of BENCH_index.json — the perf trajectory
// record for the search substrate, refreshed by `make bench-index`.
type benchReport struct {
	GeneratedAt string  `json:"generated_at"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	Docs        int     `json:"docs"`
	Queries     int     `json:"queries"`
	Engine      string  `json:"engine"`
	FlushDocs   int     `json:"flush_docs"`
	MergeFactor int     `json:"merge_factor"`
	BulkAdd     addRep  `json:"bulk_add"`
	ColdStart   coldRep `json:"cold_start"`
	Search      srchRep `json:"search"`
}

type addRep struct {
	SequentialDocsPerSec float64        `json:"sequential_docs_per_sec"`
	Writers              []writerAddRep `json:"writers"`
}

// writerAddRep records one concurrent bulk-add measurement; Speedup is
// against the sequential in-RAM baseline and is the regression gate —
// the harness fails if any entry drops below 1.0.
type writerAddRep struct {
	Writers    int     `json:"writers"`
	DocsPerSec float64 `json:"docs_per_sec"`
	Speedup    float64 `json:"speedup"`
}

type coldRep struct {
	Segments       int     `json:"segments"`
	ReopenSeconds  float64 `json:"reopen_seconds"`
	RebuildSeconds float64 `json:"rebuild_seconds"`
	Speedup        float64 `json:"speedup"`
}

type srchRep struct {
	InRAMQPS         float64 `json:"in_ram_qps"`
	SegmentQPS       float64 `json:"segment_qps"`
	SegmentSpeedup   float64 `json:"segment_speedup"`
	CachedQPS        float64 `json:"cached_qps"`
	CachedSpeedup    float64 `json:"cached_speedup"`
	ResultsIdentical bool    `json:"results_identical"`
}

// TestIndexBenchHarness measures the segment engine against the in-RAM
// baseline on the >=50k-doc corpus — concurrent bulk add at 1/2/4/8
// writers, cold start (manifest re-open vs corpus rebuild), and search
// throughput from mmap-backed segments — and writes BENCH_index.json
// to the path named by ETAP_BENCH_INDEX. Skipped unless that variable
// is set — run it via `make bench-index`. The harness is also the perf
// regression gate: it fails if concurrent bulk add loses to the
// sequential baseline at any writer count, or if segment-served
// rankings diverge from the in-RAM engine's.
func TestIndexBenchHarness(t *testing.T) {
	out := os.Getenv("ETAP_BENCH_INDEX")
	if out == "" {
		t.Skip("set ETAP_BENCH_INDEX=<output path> (or run `make bench-index`)")
	}
	docs := benchCorpus()

	runtime.GC()
	t0 := time.Now()
	single := loadSequential(docs)
	seqLoad := time.Since(t0)

	const rounds = 40 // rounds × len(goldenQueries) searches per engine
	nq := rounds * len(goldenQueries)
	searchAll := func(ix Engine) time.Duration {
		start := time.Now()
		for i := 0; i < nq; i++ {
			ix.Search(goldenQueries[i%len(goldenQueries)], 10)
		}
		return time.Since(start)
	}

	// Capture the baseline's golden rankings and search throughput, then
	// release it: keeping a second 50k-doc index live would inflate GC
	// mark work during the segment builds and skew the comparison.
	golden := make(map[string]string, len(goldenQueries))
	for _, q := range goldenQueries {
		golden[q] = fmt.Sprint(single.Search(q, 10))
	}
	inRAMDur := searchAll(single)
	single = nil

	// Concurrent bulk add into the segment engine at each writer count.
	// Timing stops when every document is searchable (the same guarantee
	// the in-RAM baseline offers at its finish line); flushes overlap
	// the adds, so committed durability rides inside the same window.
	writerCounts := []int{1, 2, 4, 8}
	adds := make([]writerAddRep, 0, len(writerCounts))
	var lastDir string
	for _, wn := range writerCounts {
		dir := t.TempDir()
		runtime.GC()
		t0 = time.Now()
		si := loadSegments(t, dir, docs, wn)
		dur := time.Since(t0)
		speedup := seqLoad.Seconds() / dur.Seconds()
		adds = append(adds, writerAddRep{
			Writers:    wn,
			DocsPerSec: float64(len(docs)) / dur.Seconds(),
			Speedup:    speedup,
		})
		if speedup < 1.0 {
			t.Errorf("bulk add with %d writers: %.3fx vs sequential — the concurrent path must not lose to the baseline", wn, speedup)
		}
		if err := si.Close(); err != nil {
			t.Fatalf("close %d-writer engine: %v", wn, err)
		}
		lastDir = dir
	}

	// Cold start: re-open the committed segments and compare with what a
	// rebuild from the corpus costs. The re-open must serve every
	// document from the manifest alone.
	t0 = time.Now()
	segs, err := OpenSegmentIndex(SegmentOptions{Dir: lastDir, CacheSize: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	reopenDur := time.Since(t0)
	st := segs.SegmentStats()
	if segs.Len() != len(docs) || st.MemtableDocs != 0 || st.Segments == 0 {
		t.Errorf("reopen state: Len=%d (want %d), memtable=%d, segments=%d — restart must serve from segments, not rebuild",
			segs.Len(), len(docs), st.MemtableDocs, st.Segments)
	}

	// Golden check: segment-served rankings must be bit-identical to the
	// in-RAM engine's for every benchmark query.
	identical := true
	for _, q := range goldenQueries {
		if got := fmt.Sprint(segs.Search(q, 10)); got != golden[q] {
			identical = false
			t.Errorf("query %q: segment results diverged from in-RAM", q)
		}
	}

	segDur := searchAll(segs) // postings fetched from mmap every query
	if err := segs.Close(); err != nil {
		t.Fatal(err)
	}
	cached, err := OpenSegmentIndex(SegmentOptions{Dir: lastDir})
	if err != nil {
		t.Fatal(err)
	}
	searchAll(cached) // warm the query cache
	cachedDur := searchAll(cached)
	if err := cached.Close(); err != nil {
		t.Fatal(err)
	}

	qps := func(d time.Duration) float64 { return float64(nq) / d.Seconds() }
	rep := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Docs:        len(docs),
		Queries:     nq,
		Engine:      "segments",
		FlushDocs:   DefaultFlushDocs,
		MergeFactor: DefaultMergeFactor,
		BulkAdd: addRep{
			SequentialDocsPerSec: float64(len(docs)) / seqLoad.Seconds(),
			Writers:              adds,
		},
		ColdStart: coldRep{
			Segments:       st.Segments,
			ReopenSeconds:  reopenDur.Seconds(),
			RebuildSeconds: seqLoad.Seconds(),
			Speedup:        seqLoad.Seconds() / reopenDur.Seconds(),
		},
		Search: srchRep{
			InRAMQPS:         qps(inRAMDur),
			SegmentQPS:       qps(segDur),
			SegmentSpeedup:   inRAMDur.Seconds() / segDur.Seconds(),
			CachedQPS:        qps(cachedDur),
			CachedSpeedup:    inRAMDur.Seconds() / cachedDur.Seconds(),
			ResultsIdentical: identical,
		},
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("bulk add: sequential %.0f docs/s", rep.BulkAdd.SequentialDocsPerSec)
	for _, a := range adds {
		t.Logf("bulk add: %d writers %.0f docs/s (%.2fx)", a.Writers, a.DocsPerSec, a.Speedup)
	}
	t.Logf("cold start: reopen %.0fms vs rebuild %.0fms (%.1fx) over %d segments",
		reopenDur.Seconds()*1e3, seqLoad.Seconds()*1e3, rep.ColdStart.Speedup, st.Segments)
	t.Logf("search: in-RAM %.1f qps, segments %.1f qps (%.2fx), cached %.1f qps (%.2fx)",
		rep.Search.InRAMQPS, rep.Search.SegmentQPS, rep.Search.SegmentSpeedup,
		rep.Search.CachedQPS, rep.Search.CachedSpeedup)
}
