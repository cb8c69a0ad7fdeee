package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"etap/internal/classify"
	"etap/internal/corpus"
	"etap/internal/gather"
	"etap/internal/rank"
	"etap/internal/web"
)

// fixture builds a world, web and system shared by the tests.
type fixture struct {
	gen  *corpus.Generator
	docs []corpus.Document
	web  *web.Web
	sys  *System
}

func newFixture(t testing.TB, seed int64, cfg Config) *fixture {
	t.Helper()
	gen := corpus.NewGenerator(corpus.Config{
		Seed:                  seed,
		RelevantPerDriver:     50,
		BackgroundDocs:        150,
		HardNegativePerDriver: 15,
		FamousEventDocs:       6,
	})
	docs := gen.World()
	w := BuildWeb(docs)
	if cfg.NegativeCount == 0 {
		cfg.NegativeCount = 600
	}
	if cfg.TopK == 0 {
		cfg.TopK = 60
	}
	return &fixture{gen: gen, docs: docs, web: w, sys: New(w, cfg)}
}

func (f *fixture) addDriver(t testing.TB, d corpus.Driver, purePos int) TrainingStats {
	t.Helper()
	return f.train(t, d, f.purePositives(d, purePos))
}

// purePositives draws n pure positives for d. The generator moves on
// with every draw, so the same driver gets different snippets
// depending on what was drawn before.
func (f *fixture) purePositives(d corpus.Driver, n int) []string {
	var pure []string
	for _, s := range f.gen.PurePositives(d, n) {
		pure = append(pure, s.Text)
	}
	return pure
}

// train adds the default driver d, with the given pure positives.
func (f *fixture) train(t testing.TB, d corpus.Driver, pure []string) TrainingStats {
	t.Helper()
	var spec SalesDriver
	for _, sd := range DefaultDrivers() {
		if sd.ID == string(d) {
			spec = sd
		}
	}
	stats, err := f.sys.AddDriver(spec, pure)
	if err != nil {
		t.Fatalf("AddDriver(%s): %v", d, err)
	}
	return stats
}

func TestAddDriverTrains(t *testing.T) {
	f := newFixture(t, 1, Config{Seed: 1})
	stats := f.addDriver(t, corpus.ChangeInManagement, 20)
	if stats.NoisyPositives < 30 {
		t.Errorf("noisy positives = %d, want >= 30 (%s)", stats.NoisyPositives, stats.Generation)
	}
	if stats.Negatives != 600 {
		t.Errorf("negatives = %d, want 600", stats.Negatives)
	}
	if len(stats.NoiseHistory) == 0 || len(stats.NoiseHistory) > 2 {
		t.Errorf("noise iterations = %d, want 1-2", len(stats.NoiseHistory))
	}
	if stats.VocabularySize == 0 {
		t.Error("empty vocabulary")
	}
}

func TestScoreSeparatesClasses(t *testing.T) {
	f := newFixture(t, 2, Config{Seed: 2})
	f.addDriver(t, corpus.ChangeInManagement, 20)

	pos := f.gen.PurePositives(corpus.ChangeInManagement, 30)
	neg := f.gen.BackgroundSnippets(30)
	posHigh, negLow := 0, 0
	for _, s := range pos {
		p, err := f.sys.Score(string(corpus.ChangeInManagement), s.Text)
		if err != nil {
			t.Fatal(err)
		}
		if p >= 0.5 {
			posHigh++
		}
	}
	for _, s := range neg {
		p, _ := f.sys.Score(string(corpus.ChangeInManagement), s.Text)
		if p < 0.5 {
			negLow++
		}
	}
	if posHigh < 20 {
		t.Errorf("only %d/30 positives scored >= 0.5", posHigh)
	}
	if negLow < 27 {
		t.Errorf("only %d/30 negatives scored < 0.5", negLow)
	}
}

func TestExtractEventsFindTriggers(t *testing.T) {
	f := newFixture(t, 3, Config{Seed: 3})
	f.addDriver(t, corpus.MergersAcquisitions, 20)

	// Evaluate on relevant + background pages.
	var pages []*web.Page
	for _, d := range f.docs {
		if p, ok := f.web.Page(d.URL); ok {
			pages = append(pages, p)
		}
	}
	events, err := f.sys.ExtractEvents(string(corpus.MergersAcquisitions), pages, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 30 {
		t.Fatalf("only %d events extracted", len(events))
	}
	// Precision spot check against ground truth.
	byURL := map[string]*corpus.Document{}
	for i := range f.docs {
		byURL[f.docs[i].URL] = &f.docs[i]
	}
	correct := 0
	for _, ev := range events {
		url := ev.SnippetID[:lastHash(ev.SnippetID)]
		if byURL[url].ContainsTrigger(ev.Text, corpus.MergersAcquisitions) {
			correct++
		}
	}
	prec := float64(correct) / float64(len(events))
	if prec < 0.5 {
		t.Errorf("event precision %.2f too low (%d/%d)", prec, correct, len(events))
	}
	t.Logf("extracted %d events, precision %.2f", len(events), prec)
}

func lastHash(id string) int {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '#' {
			return i
		}
	}
	return len(id)
}

func TestExtractEventsCompanyAttribution(t *testing.T) {
	f := newFixture(t, 4, Config{Seed: 4})
	f.addDriver(t, corpus.MergersAcquisitions, 20)
	var pages []*web.Page
	for _, d := range f.docs {
		if d.Kind == corpus.KindRelevant && d.Driver == corpus.MergersAcquisitions {
			if p, ok := f.web.Page(d.URL); ok {
				pages = append(pages, p)
			}
		}
	}
	events, err := f.sys.ExtractEvents(string(corpus.MergersAcquisitions), pages, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	withCompany := 0
	for _, ev := range events {
		if ev.Company != "" {
			withCompany++
		}
	}
	if float64(withCompany) < 0.6*float64(len(events)) {
		t.Errorf("only %d/%d events have a company", withCompany, len(events))
	}
}

func TestOrientationAppliedForRevenueGrowth(t *testing.T) {
	f := newFixture(t, 5, Config{Seed: 5})
	f.addDriver(t, corpus.RevenueGrowth, 20)
	var pages []*web.Page
	for _, d := range f.docs {
		if d.Kind == corpus.KindRelevant && d.Driver == corpus.RevenueGrowth {
			if p, ok := f.web.Page(d.URL); ok {
				pages = append(pages, p)
			}
		}
	}
	events, err := f.sys.ExtractEvents(string(corpus.RevenueGrowth), pages, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	nonZero := 0
	for _, ev := range events {
		if ev.Orientation != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("no event received an orientation score")
	}
	ranked := rank.ByOrientation(events)
	if len(ranked) != len(events) {
		t.Fatalf("ranking lost events")
	}
}

func TestUnknownDriverErrors(t *testing.T) {
	f := newFixture(t, 6, Config{Seed: 6})
	if _, err := f.sys.Score("nonexistent", "text"); !errors.Is(err, ErrUnknownDriver) {
		t.Errorf("Score err = %v", err)
	}
	if _, err := f.sys.ExtractEvents("nonexistent", nil, 0.5); !errors.Is(err, ErrUnknownDriver) {
		t.Errorf("ExtractEvents err = %v", err)
	}
	if _, err := f.sys.Stats("nonexistent"); !errors.Is(err, ErrUnknownDriver) {
		t.Errorf("Stats err = %v", err)
	}
}

func TestAddDriverValidation(t *testing.T) {
	f := newFixture(t, 7, Config{Seed: 7})
	if _, err := f.sys.AddDriver(SalesDriver{}, nil); err == nil {
		t.Error("no error for missing ID")
	}
	// No smart queries and no pure positives: no training data.
	if _, err := f.sys.AddDriver(SalesDriver{ID: "empty"}, nil); !errors.Is(err, ErrNoTrainingData) {
		t.Errorf("err = %v, want ErrNoTrainingData", err)
	}
	// Duplicate.
	f.addDriver(t, corpus.ChangeInManagement, 5)
	var spec SalesDriver
	for _, sd := range DefaultDrivers() {
		if sd.ID == string(corpus.ChangeInManagement) {
			spec = sd
		}
	}
	if _, err := f.sys.AddDriver(spec, nil); err == nil {
		t.Error("no error for duplicate driver")
	}
}

func TestNegativesSharedAcrossDrivers(t *testing.T) {
	f := newFixture(t, 8, Config{Seed: 8})
	s1 := f.addDriver(t, corpus.ChangeInManagement, 10)
	s2 := f.addDriver(t, corpus.MergersAcquisitions, 10)
	if s1.Negatives != s2.Negatives {
		t.Errorf("negative sets differ: %d vs %d", s1.Negatives, s2.Negatives)
	}
}

func TestClassifierFamilies(t *testing.T) {
	for _, kind := range []ClassifierKind{NaiveBayes, LinearSVM, WeightedLogReg} {
		f := newFixture(t, 9, Config{Seed: 9, Classifier: kind})
		f.addDriver(t, corpus.ChangeInManagement, 20)
		pos := f.gen.PurePositives(corpus.ChangeInManagement, 20)
		neg := f.gen.BackgroundSnippets(20)
		var m classify.Metrics
		for _, s := range pos {
			p, _ := f.sys.Score(string(corpus.ChangeInManagement), s.Text)
			m.Add(p >= 0.5, true)
		}
		for _, s := range neg {
			p, _ := f.sys.Score(string(corpus.ChangeInManagement), s.Text)
			m.Add(p >= 0.5, false)
		}
		if m.F1() < 0.5 {
			t.Errorf("classifier %d: F1 = %.3f (%v)", kind, m.F1(), m)
		}
	}
}

func TestSemiSupervisedTrains(t *testing.T) {
	f := newFixture(t, 12, Config{Seed: 12, SemiSupervised: true})
	stats := f.addDriver(t, corpus.ChangeInManagement, 20)
	if len(stats.NoiseHistory) != 0 {
		t.Errorf("EM mode ran the elimination loop: %+v", stats.NoiseHistory)
	}
	pos := f.gen.PurePositives(corpus.ChangeInManagement, 20)
	neg := f.gen.BackgroundSnippets(20)
	var m classify.Metrics
	for _, s := range pos {
		p, _ := f.sys.Score(string(corpus.ChangeInManagement), s.Text)
		m.Add(p >= 0.5, true)
	}
	for _, s := range neg {
		p, _ := f.sys.Score(string(corpus.ChangeInManagement), s.Text)
		m.Add(p >= 0.5, false)
	}
	if m.F1() < 0.7 {
		t.Fatalf("semi-supervised F1 = %.3f (%v)", m.F1(), m)
	}
}

func TestAutoPolicyTrains(t *testing.T) {
	f := newFixture(t, 10, Config{Seed: 10, AutoPolicy: true})
	f.addDriver(t, corpus.ChangeInManagement, 30)
	p, err := f.sys.Policy(string(corpus.ChangeInManagement))
	if err != nil || len(p) == 0 {
		t.Fatalf("policy missing: %v", err)
	}
}

func TestDefaultDrivers(t *testing.T) {
	drivers := DefaultDrivers()
	if len(drivers) != 3 {
		t.Fatalf("got %d drivers", len(drivers))
	}
	for _, d := range drivers {
		if d.ID == "" || d.Title == "" || len(d.SmartQueries) != 5 || d.Filter == nil {
			t.Errorf("driver incomplete: %+v", d)
		}
	}
	var rg SalesDriver
	for _, d := range drivers {
		if d.ID == string(corpus.RevenueGrowth) {
			rg = d
		}
	}
	if rg.Orientation == nil {
		t.Error("revenue growth driver lacks orientation lexicon")
	}
}

func TestDriversList(t *testing.T) {
	f := newFixture(t, 11, Config{Seed: 11})
	f.addDriver(t, corpus.ChangeInManagement, 5)
	got := f.sys.Drivers()
	if len(got) != 1 || got[0] != string(corpus.ChangeInManagement) {
		t.Fatalf("Drivers() = %v", got)
	}
}

func TestSystemCrawlThreadsFetchPolicy(t *testing.T) {
	w := web.New()
	w.AddPage(web.Page{URL: "u:a", Text: "alpha news", Links: []string{"u:b"}})
	w.AddPage(web.Page{URL: "u:b", Text: "beta news"})
	sys := New(w, Config{Fetch: gather.FetchOptions{
		Fault: &web.FaultConfig{Seed: 3, TransientRate: 1, MaxTransient: 1},
		Retry: gather.RetryConfig{MaxAttempts: 4, Sleep: func(time.Duration) {}},
	}})
	got := sys.Crawl(context.Background(), gather.CrawlConfig{Seeds: []string{"u:a"}})
	if len(got.Pages) != 2 || len(got.Failed) != 0 {
		t.Fatalf("crawl: %d pages, %d failed", len(got.Pages), len(got.Failed))
	}
	if got.Retries == 0 {
		t.Fatal("fault injection from Config.Fetch not applied (no retries)")
	}
	// An explicit per-crawl fetcher wins over the config's fault layer.
	clean := sys.Crawl(context.Background(), gather.CrawlConfig{Seeds: []string{"u:a"}, Fetcher: w})
	if clean.Retries != 0 || len(clean.Pages) != 2 {
		t.Fatalf("explicit fetcher overridden: retries=%d pages=%d", clean.Retries, len(clean.Pages))
	}
}
