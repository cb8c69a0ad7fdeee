package core

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"etap/internal/corpus"
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
// vocabulary size.
type trainingRun struct {
	noisy      []train.Snippet
	noisyStats []train.Stats
	negatives  []train.Snippet
	stats      []TrainingStats
	probs      []float64
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
