package index

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"etap/internal/corpus"
	"etap/internal/par"
)

var (
	leadsDocsOnce sync.Once
	leadsDocs     []Doc
)

// leadsWorld is the generated world the `leads` benchmark workload
// builds its index from (about 6,400 pages), as bulk-load documents.
func leadsWorld() []Doc {
	leadsDocsOnce.Do(func() {
		world := corpus.NewGenerator(corpus.Config{Seed: 1, RelevantPerDriver: 840,
			HardNegativePerDriver: 280, BackgroundDocs: 2800, FamousEventDocs: 56}).World()
		leadsDocs = make([]Doc, len(world))
		for i := range world {
			leadsDocs[i] = Doc{ID: world[i].URL, Parts: []string{world[i].Title, world[i].Text()}}
		}
	})
	return leadsDocs
}

// asDocs turns corpus documents into bulk-load documents.
func asDocs(docs []corpusDoc) []Doc {
	out := make([]Doc, len(docs))
	for i, d := range docs {
		out[i] = Doc{ID: d.id, Parts: []string{d.text}}
	}
	return out
}

// dirFiles reads every file of dir by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestBulkLoadRepeatsBytes pins what loading lane by lane makes
// repeatable: the same world bulk-loaded twice into fresh directories
// leaves byte-identical segment files and MANIFEST.json after Close,
// because each lane's memtable holds its pages in page order rather
// than in the order workers reached them.
func TestBulkLoadRepeatsBytes(t *testing.T) {
	docs := leadsWorld()
	build := func() map[string][]byte {
		dir := t.TempDir()
		si, err := OpenSegmentIndex(SegmentOptions{Dir: dir, Writers: 2})
		if err != nil {
			t.Fatal(err)
		}
		si.AddDocs(docs)
		if err := si.Close(); err != nil {
			t.Fatal(err)
		}
		return dirFiles(t, dir)
	}
	first, second := build(), build()
	if _, ok := first[manifestName]; !ok || len(first) < 3 {
		t.Fatalf("load left %d files, want a manifest and a segment per lane", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("the loads left %d and %d files", len(first), len(second))
	}
	for name, b := range first {
		if !bytes.Equal(b, second[name]) {
			t.Errorf("%s differs between two loads of the same world", name)
		}
	}
}

// bulkEngines are the engine configurations the bulk-load tests run:
// one and several shards or lanes, and a segment engine whose small
// memtables seal and flush in the middle of a load.
func bulkEngines(t *testing.T) map[string]func() Engine {
	seg := func(o SegmentOptions) func() Engine {
		return func() Engine {
			o.Dir = t.TempDir()
			si, err := OpenSegmentIndex(o)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { si.Close() })
			return si
		}
	}
	return map[string]func() Engine{
		"ram-1":         func() Engine { return NewWithOptions(Options{Shards: 1, CacheSize: -1}) },
		"ram-3":         func() Engine { return NewWithOptions(Options{Shards: 3, CacheSize: -1}) },
		"segment-1":     seg(SegmentOptions{Writers: 1, CacheSize: -1}),
		"segment-3":     seg(SegmentOptions{Writers: 3, CacheSize: -1}),
		"segment-flush": seg(SegmentOptions{Writers: 2, FlushDocs: 500, CacheSize: -1}),
	}
}

// TestBulkLoadMatchesAdd checks AddDocs against one Add per document on
// every engine configuration: the same Len, and the same rankings,
// document frequencies and co-occurrence counts as answersDigest pins.
func TestBulkLoadMatchesAdd(t *testing.T) {
	docs := digestCorpus()
	for name, open := range bulkEngines(t) {
		t.Run(name, func(t *testing.T) {
			eng := open()
			eng.AddDocs(asDocs(docs))
			if eng.Len() != len(docs) {
				t.Fatalf("Len = %d after loading %d documents", eng.Len(), len(docs))
			}
			if got := engineAnswersDigest(eng); got != answersDigest {
				t.Fatalf("answers digest = %s, want %s", got, answersDigest)
			}
			for _, d := range docs[:50] {
				if !eng.Has(d.id) {
					t.Fatalf("Has(%s) = false after the load", d.id)
				}
			}
		})
	}
}

// TestBulkLoadDuplicatePanics checks the duplicate contract on every
// engine: an ID twice in one load panics on the caller's goroutine,
// naming it, and a loaded ID added again panics as Add always has.
func TestBulkLoadDuplicatePanics(t *testing.T) {
	docs := asDocs(syntheticCorpus(200, 3))
	twice := append(docs[:150:150], docs[120])
	for name, open := range bulkEngines(t) {
		t.Run(name, func(t *testing.T) {
			eng := open()
			func() {
				defer func() {
					r := recover()
					if r == nil || !strings.Contains(fmt.Sprint(r), "duplicate document "+docs[120].ID) {
						t.Fatalf("AddDocs with %s twice: recovered %v", docs[120].ID, r)
					}
				}()
				eng.AddDocs(twice)
			}()
			if eng.Len() != 150 {
				t.Fatalf("Len = %d after the load, want 150", eng.Len())
			}
			func() {
				defer func() {
					if r := recover(); r == nil {
						t.Fatal("Add of a bulk-loaded ID did not panic")
					}
				}()
				eng.Add(docs[7].ID, "again")
			}()
		})
	}
}

// TestBulkLoadSkipsRecovered reopens a segment engine over a closed
// load and bulk-loads a superset: the recovered documents are skipped,
// not re-indexed, and the answers are those of one fresh load.
func TestBulkLoadSkipsRecovered(t *testing.T) {
	docs := asDocs(digestCorpus())
	dir := t.TempDir()
	si, err := OpenSegmentIndex(SegmentOptions{Dir: dir, Writers: 2})
	if err != nil {
		t.Fatal(err)
	}
	si.AddDocs(docs[:4000])
	if err := si.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSegmentIndex(SegmentOptions{Dir: dir, Writers: 3, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.AddDocs(docs)
	st := re.SegmentStats()
	if st.SegmentDocs != 4000 || st.MemtableDocs != len(docs)-4000 {
		t.Fatalf("reopened load holds %d on disk and %d in memtables, want 4000 and %d",
			st.SegmentDocs, st.MemtableDocs, len(docs)-4000)
	}
	if got := engineAnswersDigest(re); got != answersDigest {
		t.Fatalf("answers digest = %s, want %s", got, answersDigest)
	}
}

// TestBulkLoadConcurrentSearch runs a bulk load while other goroutines
// search and ask Has, on both engines: under -race this checks that
// the lanes' appends synchronize with readers, and afterwards the
// answers are those of a quiet load.
func TestBulkLoadConcurrentSearch(t *testing.T) {
	docs := asDocs(digestCorpus())
	for _, name := range []string{"ram-3", "segment-flush"} {
		t.Run(name, func(t *testing.T) {
			eng := bulkEngines(t)[name]()
			var done atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; !done.Load(); i++ {
						eng.Search(digestQueries[(i+g)%len(digestQueries)], 10)
						eng.Has(docs[(i*37)%len(docs)].ID)
						eng.CoNearFreq("acme", "ceo", 5)
					}
				}(g)
			}
			eng.AddDocs(docs)
			done.Store(true)
			wg.Wait()
			if got := engineAnswersDigest(eng); got != answersDigest {
				t.Fatalf("answers digest = %s, want %s", got, answersDigest)
			}
		})
	}
}

// TestBulkLoadLanesHoldPageOrder checks that every lane appends its
// documents in the order the load lists them, at one and several
// workers and lanes.
func TestBulkLoadLanesHoldPageOrder(t *testing.T) {
	docs := asDocs(syntheticCorpus(1000, 9))
	for _, writers := range []int{1, 2, 5} {
		si, err := OpenSegmentIndex(SegmentOptions{Dir: t.TempDir(), Writers: writers})
		if err != nil {
			t.Fatal(err)
		}
		si.AddDocs(docs)
		for l, w := range si.writers {
			var want []string
			for _, d := range docs {
				if si.laneOf(d.ID) == l {
					want = append(want, d.ID)
				}
			}
			if got := w.current().ids; !reflect.DeepEqual(got, want) {
				t.Fatalf("writers=%d: lane %d holds its documents out of order", writers, l)
			}
		}
		si.Close()
	}
}

// BenchmarkBulkLoad loads the `leads` world into each engine through
// AddDocs ("bulk") and through the per-document loop web.AddPages ran
// before AddDocs existed ("perdoc": Has, then Add, fanned out with
// par.For), so `-cpu 1` and `-cpu 2` show what loading lane by lane
// costs or saves at each core count.
func BenchmarkBulkLoad(b *testing.B) {
	docs := leadsWorld()
	perDoc := func(e Engine) {
		par.For(0, len(docs), func(i int) {
			if !e.Has(docs[i].ID) {
				e.Add(docs[i].ID, docs[i].Parts...)
			}
		})
	}
	engines := map[string]func(b *testing.B) (Engine, func()){
		"ram": func(b *testing.B) (Engine, func()) { return New(), func() {} },
		"segment": func(b *testing.B) (Engine, func()) {
			si, err := OpenSegmentIndex(SegmentOptions{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			return si, func() {
				if err := si.Close(); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
	for _, engine := range []string{"ram", "segment"} {
		for _, mode := range []string{"bulk", "perdoc"} {
			b.Run(engine+"/"+mode, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					eng, closeEng := engines[engine](b)
					b.StartTimer()
					if mode == "bulk" {
						eng.AddDocs(docs)
					} else {
						perDoc(eng)
					}
					b.StopTimer()
					closeEng()
					b.StartTimer()
				}
			})
		}
	}
}
