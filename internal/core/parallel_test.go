package core

import (
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"etap/internal/corpus"
	"etap/internal/feature"
	"etap/internal/obs"
	"etap/internal/rank"
	"etap/internal/snippet"
	"etap/internal/train"
	"etap/internal/web"
)

func TestExtractEventsParallelMatchesSequential(t *testing.T) {
	f := newFixture(t, 41, Config{Seed: 41})
	f.addDriver(t, corpus.ChangeInManagement, 15)
	id := string(corpus.ChangeInManagement)

	var pages []*web.Page
	for _, d := range f.docs {
		if p, ok := f.web.Page(d.URL); ok {
			pages = append(pages, p)
		}
	}
	seq, err := f.sys.ExtractEvents(id, pages, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := f.sys.ExtractEventsParallel(id, pages, 0.5, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d events vs %d sequential", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: event %d differs:\n par: %+v\n seq: %+v",
					workers, i, par[i], seq[i])
			}
		}
	}
}

// TestExtractAllEventsAnnotatesOnce checks that ExtractAllEvents, which
// annotates each page once for every driver, returns exactly the
// concatenation of one ExtractEvents call per driver in sorted order,
// and that the annotate stage saw each snippet once, not once per
// driver.
func TestExtractAllEventsAnnotatesOnce(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFixture(t, 49, Config{Seed: 49, Metrics: reg})
	for _, d := range corpus.Drivers {
		f.addDriver(t, d, 10)
	}
	var pages []*web.Page
	snippets := 0
	for _, d := range f.docs[:120] {
		p, ok := f.web.Page(d.URL)
		if !ok {
			t.Fatalf("page %s missing", d.URL)
		}
		pages = append(pages, p)
		snippets += len(snippet.Generator{}.Split(p.URL, p.Text))
	}
	ids := f.sys.Drivers()
	sort.Strings(ids)
	var want []rank.Event
	for _, id := range ids {
		evs, err := f.sys.ExtractEvents(id, pages, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, evs...)
	}
	annotated := obs.StageDuration(reg, "annotate")
	before := annotated.Count()
	got := f.sys.ExtractAllEvents(pages, 0.5)
	if len(want) == 0 {
		t.Fatal("no events: the comparison proves nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractAllEvents returned %d events, per-driver ExtractEvents %d, or they differ",
			len(got), len(want))
	}
	if n := annotated.Count() - before; n != uint64(snippets) {
		t.Errorf("annotate stage observed %d snippets, want %d (each once)", n, snippets)
	}
}

// batchPages returns copies of the first n pages of f's world, so a
// test can change a page without changing the web.
func (f *fixture) batchPages(t testing.TB, n int) []*web.Page {
	t.Helper()
	pages := make([]*web.Page, 0, n)
	for _, d := range f.docs[:n] {
		p, ok := f.web.Page(d.URL)
		if !ok {
			t.Fatalf("page %s missing", d.URL)
		}
		cp := *p
		pages = append(pages, &cp)
	}
	return pages
}

// freshExtract is ExtractEventsParallel with the stash emptied before
// and after, so its events are computed, never taken.
func freshExtract(t testing.TB, sys *System, id string, pages []*web.Page, threshold float64) []rank.Event {
	t.Helper()
	sys.stash.put(nil, 0, nil)
	events, err := sys.ExtractEventsParallel(id, pages, threshold, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys.stash.put(nil, 0, nil)
	return events
}

func stashEmpty(sys *System) bool {
	sys.stash.mu.Lock()
	defer sys.stash.mu.Unlock()
	return sys.stash.events == nil && sys.stash.pages == nil && sys.stash.keys == nil
}

// TestBatchExtractionAnnotatesOnce checks that one ExtractEventsParallel
// call per trained driver over the same pages splits each page and
// annotates each snippet once in all, that each driver still gets
// exactly its own events — those of a System trained with that driver
// alone — and that the stash empties once every driver has taken its
// events.
func TestBatchExtractionAnnotatesOnce(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFixture(t, 51, Config{Seed: 51, Metrics: reg})
	pure := make(map[corpus.Driver][]string)
	for _, d := range corpus.Drivers {
		pure[d] = f.purePositives(d, 10)
		f.train(t, d, pure[d])
	}
	pages := f.batchPages(t, 120)
	snippets := 0
	for _, p := range pages {
		snippets += len(snippet.Generator{}.Split(p.URL, p.Text))
	}
	split := obs.StageDuration(reg, "snippet")
	annotated := obs.StageDuration(reg, "annotate")
	classified := obs.StageDuration(reg, "classify")
	splitBefore, before, classifiedBefore := split.Count(), annotated.Count(), classified.Count()
	got := make(map[string][]rank.Event)
	for _, d := range corpus.Drivers {
		events, err := f.sys.ExtractEventsParallel(string(d), pages, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		got[string(d)] = events
	}
	if n := split.Count() - splitBefore; n != uint64(len(pages)) {
		t.Errorf("snippet stage observed %d pages, want %d (each once)", n, len(pages))
	}
	if n := annotated.Count() - before; n != uint64(snippets) {
		t.Errorf("annotate stage observed %d snippets, want %d (each once)", n, snippets)
	}
	if n, want := classified.Count()-classifiedBefore, uint64(len(corpus.Drivers)*snippets); n != want {
		t.Errorf("classify stage observed %d, want %d (once per driver per snippet)", n, want)
	}
	if !stashEmpty(f.sys) {
		t.Error("stash still holds events after every driver took its own")
	}

	for _, d := range corpus.Drivers {
		alone := newFixture(t, 51, Config{Seed: 51})
		alone.train(t, d, pure[d])
		want, err := alone.sys.ExtractEventsParallel(string(d), pages, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: no events: the comparison proves nothing", d)
		}
		if !reflect.DeepEqual(got[string(d)], want) {
			t.Errorf("%s: %d events from the shared pass, %d from a one-driver System, or they differ",
				d, len(got[string(d)]), len(want))
		}
		if !stashEmpty(alone.sys) {
			t.Errorf("%s: a one-driver System filled the stash", d)
		}
	}
}

// TestBatchStashMisses changes the batch, or the System, between a call
// that fills the stash and the next call for a stashed driver. Each
// change must make that call compute its events afresh.
func TestBatchStashMisses(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFixture(t, 52, Config{Seed: 52, Metrics: reg})
	first, second, added := string(corpus.RevenueGrowth), string(corpus.ChangeInManagement), corpus.MergersAcquisitions
	f.addDriver(t, corpus.RevenueGrowth, 10)
	f.addDriver(t, corpus.ChangeInManagement, 10)
	positive := f.purePositives(corpus.ChangeInManagement, 1)[0]
	annotated := obs.StageDuration(reg, "annotate")

	// Each case gets the pages of the call that filled the stash and
	// returns the next call's arguments. The System keeps the driver
	// added last.
	cases := []struct {
		name string
		next func(pages []*web.Page) (string, []*web.Page, float64)
	}{
		{"threshold", func(pages []*web.Page) (string, []*web.Page, float64) {
			return second, pages, 0.7
		}},
		{"text replaced", func(pages []*web.Page) (string, []*web.Page, float64) {
			pages[3].Text = positive
			return second, pages, 0.5
		}},
		{"URL replaced", func(pages []*web.Page) (string, []*web.Page, float64) {
			pages[3].URL += "?moved"
			return second, pages, 0.5
		}},
		{"reordered", func(pages []*web.Page) (string, []*web.Page, float64) {
			reordered := append([]*web.Page(nil), pages...)
			slices.Reverse(reordered)
			return second, reordered, 0.5
		}},
		{"shorter", func(pages []*web.Page) (string, []*web.Page, float64) {
			return second, pages[:len(pages)-1], 0.5
		}},
		{"driver added", func(pages []*web.Page) (string, []*web.Page, float64) {
			f.addDriver(t, added, 10)
			return string(added), pages, 0.5
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pages := f.batchPages(t, 120)
			if _, err := f.sys.ExtractEventsParallel(first, pages, 0.5, 0); err != nil {
				t.Fatal(err)
			}
			if stashEmpty(f.sys) {
				t.Fatal("the first call stashed nothing")
			}
			id, next, threshold := tc.next(pages)
			before := annotated.Count()
			got, err := f.sys.ExtractEventsParallel(id, next, threshold, 0)
			if err != nil {
				t.Fatal(err)
			}
			if annotated.Count() == before {
				t.Error("answered from the stash")
			}
			want := freshExtract(t, f.sys, id, next, threshold)
			if len(want) == 0 {
				t.Fatal("no events: the comparison proves nothing")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d events, a fresh computation %d, or they differ", len(got), len(want))
			}
		})
	}
}

// TestSharedPassDistinctPolicies gives one driver a policy of its own:
// the shared pass abstracts each snippet once per distinct policy, and
// each driver must still score the features of its own.
func TestSharedPassDistinctPolicies(t *testing.T) {
	f := newFixture(t, 54, Config{Seed: 54})
	f.addDriver(t, corpus.MergersAcquisitions, 10)
	f.addDriver(t, corpus.ChangeInManagement, 10)
	m, err := f.sys.ExportDriver(string(corpus.MergersAcquisitions))
	if err != nil {
		t.Fatal(err)
	}
	m.ID, m.Policy = "mergers-bag-of-words", feature.BagOfWordsPolicy().MarshalMap()
	if err := f.sys.ImportDriver(m, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(f.sys.scorer().policies); n != 2 {
		t.Fatalf("scorer has %d distinct policies, want 2", n)
	}
	pages := f.batchPages(t, 120)
	ids := f.sys.Drivers()
	sort.Strings(ids)
	for _, id := range ids {
		got, err := f.sys.ExtractEventsParallel(id, pages, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		model, err := f.sys.ExportDriver(id)
		if err != nil {
			t.Fatal(err)
		}
		alone := New(f.web, Config{Seed: 54})
		if err := alone.ImportDriver(model, nil); err != nil {
			t.Fatal(err)
		}
		want, err := alone.ExtractEventsParallel(id, pages, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: no events: the comparison proves nothing", id)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d events from the shared pass, %d from a one-driver System, or they differ",
				id, len(got), len(want))
		}
	}
}

// TestBatchExtractionConcurrent runs one extraction per driver over the
// same pages concurrently, plus one at another threshold, so stash
// takes and replacements interleave. Run it under the race detector:
//
//	go test -race -count=10 -run TestBatchExtractionConcurrent ./internal/core
func TestBatchExtractionConcurrent(t *testing.T) {
	f := newFixture(t, 53, Config{Seed: 53})
	for _, d := range corpus.Drivers {
		f.addDriver(t, d, 10)
	}
	pages := f.batchPages(t, 60)
	type call struct {
		id        string
		threshold float64
	}
	calls := []call{{string(corpus.Drivers[0]), 0.8}}
	for _, d := range corpus.Drivers {
		calls = append(calls, call{string(d), 0.5})
	}
	want := make([][]rank.Event, len(calls))
	for i, c := range calls {
		want[i] = freshExtract(t, f.sys, c.id, pages, c.threshold)
	}
	for round := 0; round < 4; round++ {
		got := make([][]rank.Event, len(calls))
		errs := make([]error, len(calls))
		var wg sync.WaitGroup
		for i, c := range calls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = f.sys.ExtractEventsParallel(c.id, pages, c.threshold, 2)
			}()
		}
		wg.Wait()
		for i, c := range calls {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("round %d, %s at %g: %d events, want %d, or they differ",
					round, c.id, c.threshold, len(got[i]), len(want[i]))
			}
		}
	}
}

func TestExtractEventsParallelSingleWorkerFallback(t *testing.T) {
	f := newFixture(t, 42, Config{Seed: 42})
	f.addDriver(t, corpus.MergersAcquisitions, 10)
	id := string(corpus.MergersAcquisitions)
	pages := f.web.Search("merger", 20)
	par, err := f.sys.ExtractEventsParallel(id, pages, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := f.sys.ExtractEvents(id, pages, 0.5)
	if len(par) != len(seq) {
		t.Fatalf("fallback differs: %d vs %d", len(par), len(seq))
	}
}

func TestExtractEventsParallelUnknownDriver(t *testing.T) {
	f := newFixture(t, 43, Config{Seed: 43})
	if _, err := f.sys.ExtractEventsParallel("ghost", nil, 0.5, 4); err != ErrUnknownDriver {
		t.Fatalf("err = %v", err)
	}
}

func TestExtractEventsParallelEmptyPages(t *testing.T) {
	f := newFixture(t, 44, Config{Seed: 44})
	f.addDriver(t, corpus.ChangeInManagement, 5)
	events, err := f.sys.ExtractEventsParallel(string(corpus.ChangeInManagement), nil, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("events from no pages: %d", len(events))
	}
}

// trainingRun is everything training produces that must not depend on
// how many cores annotate the training data. TrainingStats carries the
// vocabulary size; kept is what the System keeps once AddDriver
// returns.
type trainingRun struct {
	noisy      []train.Snippet
	noisyStats []train.Stats
	negatives  []train.Snippet
	stats      []TrainingStats
	probs      []float64
	kept       keptTraining
}

// keptTraining is what training leaves on a System: the shared
// negatives' feature ids, the feature table's names in id order, and
// each driver's vocabulary and projection, in sorted-ID order.
type keptTraining struct {
	negIDs [][]int32
	table  []string
	vocabs [][]string
	projs  []feature.Projection
}

// kept reads what sys keeps of its training.
func kept(sys *System) keptTraining {
	k := keptTraining{negIDs: sys.negIDs}
	for id := int32(0); id < int32(sys.table.Len()); id++ {
		k.table = append(k.table, sys.table.Name(id))
	}
	for _, td := range sys.scorer().drivers {
		k.vocabs = append(k.vocabs, td.vocab.Names())
		k.projs = append(k.projs, td.proj)
	}
	return k
}

// trainAt runs the training-data steps on their own, then trains every
// default driver, with GOMAXPROCS set to procs. At one, par.For runs
// inline in index order: the sequential reference.
func trainAt(t *testing.T, procs int) trainingRun {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f := newFixture(t, 46, Config{Seed: 46})
	var run trainingRun
	for _, d := range DefaultDrivers() {
		noisy, stats := train.NoisyPositives(f.web, f.sys.Annotator(),
			train.Spec{SmartQueries: d.SmartQueries, Filter: d.Filter}, train.Config{TopK: 60})
		run.noisy = append(run.noisy, noisy...)
		run.noisyStats = append(run.noisyStats, stats)
	}
	run.negatives = train.Negatives(f.web, f.sys.Annotator(), 300, 0, 46)
	probes := corpus.NewGenerator(corpus.Config{Seed: 47}).BackgroundSnippets(10)
	for _, d := range corpus.Drivers {
		run.stats = append(run.stats, f.addDriver(t, d, 10))
		probes = append(probes, corpus.NewGenerator(corpus.Config{Seed: 48}).PurePositives(d, 10)...)
	}
	run.kept = kept(f.sys)
	for _, d := range corpus.Drivers {
		for _, p := range probes {
			prob, err := f.sys.Score(string(d), p.Text)
			if err != nil {
				t.Fatal(err)
			}
			run.probs = append(run.probs, prob)
		}
	}
	return run
}

func TestTrainingIdenticalAcrossGOMAXPROCS(t *testing.T) {
	seq := trainAt(t, 1)
	par := trainAt(t, 4)
	if len(seq.noisy) == 0 || len(seq.negatives) == 0 {
		t.Fatalf("empty training data: %d noisy, %d negatives", len(seq.noisy), len(seq.negatives))
	}
	check := func(what string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s differ between GOMAXPROCS=1 and 4", what)
		}
	}
	check("noisy-positive snippets and units", seq.noisy, par.noisy)
	check("noisy-positive Stats", seq.noisyStats, par.noisyStats)
	check("negative snippets and units", seq.negatives, par.negatives)
	check("training stats", seq.stats, par.stats)
	check("classifier probabilities", seq.probs, par.probs)
	if len(seq.kept.negIDs) == 0 || len(seq.kept.table) == 0 {
		t.Fatalf("training kept %d negatives and %d features", len(seq.kept.negIDs), len(seq.kept.table))
	}
	check("kept negatives, feature table, vocabularies and projections", seq.kept, par.kept)
}

func BenchmarkExtractEventsSequential(b *testing.B) {
	b.ReportAllocs()
	f := newFixture(b, 45, Config{Seed: 45})
	f.addDriver(b, corpus.ChangeInManagement, 10)
	id := string(corpus.ChangeInManagement)
	var pages []*web.Page
	for _, d := range f.docs {
		if p, ok := f.web.Page(d.URL); ok {
			pages = append(pages, p)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.sys.ExtractEvents(id, pages, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractEventsParallel(b *testing.B) {
	b.ReportAllocs()
	f := newFixture(b, 45, Config{Seed: 45})
	f.addDriver(b, corpus.ChangeInManagement, 10)
	id := string(corpus.ChangeInManagement)
	var pages []*web.Page
	for _, d := range f.docs {
		if p, ok := f.web.Page(d.URL); ok {
			pages = append(pages, p)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.sys.ExtractEventsParallel(id, pages, 0.5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// allDriversFixture trains the three default drivers on the benchmark
// fixture and returns it with every page of its world.
func allDriversFixture(b *testing.B) (*fixture, []*web.Page) {
	f := newFixture(b, 45, Config{Seed: 45})
	for _, d := range corpus.Drivers {
		f.addDriver(b, d, 10)
	}
	var pages []*web.Page
	for _, d := range f.docs {
		if p, ok := f.web.Page(d.URL); ok {
			pages = append(pages, p)
		}
	}
	return f, pages
}

// BenchmarkExtractEventsAllDrivers is the batch callers' pattern: one
// extraction per trained driver over the same pages.
func BenchmarkExtractEventsAllDrivers(b *testing.B) {
	b.ReportAllocs()
	f, pages := allDriversFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range corpus.Drivers {
			if _, err := f.sys.ExtractEventsParallel(string(d), pages, 0.5, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtractEventsOneOfThree prices the shared pass for a caller
// that trains three drivers but extracts only one of them.
func BenchmarkExtractEventsOneOfThree(b *testing.B) {
	b.ReportAllocs()
	f, pages := allDriversFixture(b)
	id := string(corpus.ChangeInManagement)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.sys.ExtractEventsParallel(id, pages, 0.5, 0); err != nil {
			b.Fatal(err)
		}
	}
}
