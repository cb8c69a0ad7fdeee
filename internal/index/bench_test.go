package index

import (
	"runtime"
	"sync"
	"testing"
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

// loadSegments bulk-loads the segment engine in dir (memory-only when
// dir is empty) with `writers` concurrent goroutines striding the
// corpus, default flush/merge policy. The engine is returned with every
// document searchable (memtables count); durability of the tail batch
// comes with Close.
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

// BenchmarkIndexBulkAdd times the concurrent bulk load of a memory-only
// engine ("memory") and of a durable one, flush and Close included
// ("segments"), on the same corpus.
func BenchmarkIndexBulkAdd(b *testing.B) {
	docs := benchCorpus()[:10000]
	b.Run("memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loadSegments(b, "", docs, runtime.GOMAXPROCS(0))
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

// BenchmarkIndexSearch compares query throughput: a memory-only engine
// serving from its memtables, the segment engine serving from committed
// on-disk segments, and the segment engine with its query cache
// enabled, all uncached but the last; cooccur times the PMI-IR NEAR
// count (never cached) on the on-disk segments. Allocations are
// reported for every case.
func BenchmarkIndexSearch(b *testing.B) {
	docs := benchCorpus()
	memory := loadSegments(b, "", docs, runtime.GOMAXPROCS(0))

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
	b.Run("memory", run(memory))
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
