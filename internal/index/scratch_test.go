package index

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"etap/internal/textproc"
)

// reopenedSegmentIndex loads docs through a segment engine with the
// given flush and merge policy, commits them by closing it, and
// returns the engine reopened over those segments with its query cache
// off, so every query is resolved against the on-disk postings.
func reopenedSegmentIndex(t *testing.T, o SegmentOptions, docs []corpusDoc) *SegmentIndex {
	t.Helper()
	o.Dir = t.TempDir()
	si := buildSegmentIndex(t, o, docs)
	if err := si.Close(); err != nil {
		t.Fatal(err)
	}
	return buildSegmentIndex(t, SegmentOptions{Dir: o.Dir, Writers: 1, CacheSize: -1}, nil)
}

// scratchOp is one read against an engine, with its answer.
type scratchOp struct {
	name string
	run  func(Engine) any
}

// scratchOps mixes every read that decodes postings into scratch:
// searches at two depths, whole-document and windowed co-occurrence.
func scratchOps() []scratchOp {
	var ops []scratchOp
	for _, q := range goldenQueries {
		for _, k := range []int{25, 200} {
			ops = append(ops, scratchOp{fmt.Sprintf("Search(%q, %d)", q, k), func(e Engine) any { return e.Search(q, k) }})
		}
	}
	for _, p := range digestPairs {
		ops = append(ops, scratchOp{fmt.Sprintf("CoDocFreq(%q, %q)", p[0], p[1]), func(e Engine) any { return e.CoDocFreq(p[0], p[1]) }})
		for _, w := range []int{5, 10} {
			ops = append(ops, scratchOp{fmt.Sprintf("CoNearFreq(%q, %q, %d)", p[0], p[1], w), func(e Engine) any { return e.CoNearFreq(p[0], p[1], w) }})
		}
	}
	return ops
}

// TestScratchConcurrentReaders runs eight goroutines of mixed Search,
// CoNearFreq and CoDocFreq calls against one reopened segment engine
// with its cache off, each goroutine walking the operations in its own
// order. Every answer must equal the sequential reference: a scratch
// handed to two reads at once, or one returned to the pool while its
// decoded postings or hits were still in use, would show here (and
// under -race).
func TestScratchConcurrentReaders(t *testing.T) {
	si := reopenedSegmentIndex(t, SegmentOptions{Writers: 2, FlushDocs: 400, MergeFactor: 3}, syntheticCorpus(3000, 47))
	if st := si.SegmentStats(); st.Segments < 2 {
		t.Fatalf("want several segments to fan out over, got %+v", st)
	}
	ops := scratchOps()
	want := make([]any, len(ops))
	for i, op := range ops {
		want[i] = op.run(si)
	}

	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range ops {
					i := (j*(2*g+1) + r) % len(ops)
					if got := ops[i].run(si); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d: %s = %v, want %v", g, ops[i].name, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestUncachedSegmentReadAllocsBounded pins the allocation property of
// segment reads: an uncached phrase-plus-terms Search and a CoNearFreq
// over a 20k-document segment make at most a few more allocations than
// over a 2k-document one, although they scan ten times the postings —
// decoding and matching reuse pooled scratch, so only the result and
// per-query bookkeeping are allocated. Each engine holds one segment,
// so both fan out over the same parts.
func TestUncachedSegmentReadAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20k-document index")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	const query = `"new ceo" acquired revenue`
	allocs := func(n int) (search, near float64) {
		si := reopenedSegmentIndex(t, SegmentOptions{Writers: 1, FlushDocs: 1 << 30}, syntheticCorpus(n, 48))
		if len(si.Search(query, 200)) == 0 || si.CoNearFreq("acme", "ceo", 10) == 0 {
			t.Fatalf("%d docs: the measured reads match nothing", n)
		}
		search = testing.AllocsPerRun(50, func() { si.Search(query, 200) })
		near = testing.AllocsPerRun(50, func() { si.CoNearFreq("acme", "ceo", 10) })
		return search, near
	}
	search2k, near2k := allocs(2000)
	search20k, near20k := allocs(20000)
	t.Logf("allocs per Search: %.0f at 2k docs, %.0f at 20k; per CoNearFreq: %.0f, %.0f", search2k, search20k, near2k, near20k)
	// The margin covers the result slice's size class and a pool
	// scratch dropped by a GC during the runs.
	const margin = 8
	if search20k > search2k+margin {
		t.Errorf("Search allocates %.0f times at 20k docs, %.0f at 2k: grows with the postings scanned", search20k, search2k)
	}
	if near20k > near2k+margin {
		t.Errorf("CoNearFreq allocates %.0f times at 20k docs, %.0f at 2k: grows with the postings scanned", near20k, near2k)
	}
}

// TestWarmTermsAllocateNothing pins the add path's allocation property:
// a document's terms go into pooled scratch and every stem comes from
// textproc's word table, so once both are warm, normalizing a document
// allocates nothing. The path once made one []string per document.
func TestWarmTermsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	docs := syntheticCorpus(8, 5)
	scan := func() {
		for _, d := range docs {
			sc := textproc.GetScratch()
			if len(scanTerms(sc, []string{"Acme Corp names a new CEO", d.text})) == 0 {
				t.Fatal("no terms")
			}
			sc.Release()
		}
	}
	scan()
	if allocs := testing.AllocsPerRun(50, scan); allocs != 0 {
		t.Errorf("the terms of %d warmed documents allocated %v times, want 0", len(docs), allocs)
	}
}
