// Package core implements the ETAP system itself (Section 2): sales
// drivers, trigger events, and the three components — data gathering,
// event identification, and ranking — wired into one pipeline.
//
// Usage:
//
//	sys := core.New(web, core.Config{})
//	stats, err := sys.AddDriver(core.SalesDriver{...}, purePositives)
//	events := sys.ExtractEvents("change-in-management", pages, 0.5)
//	ranked := rank.ByScore(events)
package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"time"

	"etap/internal/annotate"
	"etap/internal/classify"
	"etap/internal/feature"
	"etap/internal/gather"
	"etap/internal/ner"
	"etap/internal/noise"
	"etap/internal/obs"
	"etap/internal/par"
	"etap/internal/rank"
	"etap/internal/snippet"
	"etap/internal/train"
	"etap/internal/web"
)

// SalesDriver describes one sales driver: "a class of events whose
// existence indicates a high propensity to buy products/services by the
// companies associated with the events".
type SalesDriver struct {
	// ID is the stable identifier ("mergers-acquisitions").
	ID string
	// Title is the display name ("Mergers & acquisitions").
	Title string
	// SmartQueries generate the noisy positive data (Section 3.3.1).
	SmartQueries []string
	// Filter is the snippet-level entity filter distilling noisy
	// positives; nil accepts everything.
	Filter train.Filter
	// Orientation is an optional driver-specific scoring lexicon
	// (Section 4); nil drivers rank by classifier score only.
	Orientation rank.Lexicon
}

// ClassifierKind selects the classifier family for event identification.
type ClassifierKind uint8

// Supported classifier families. NaiveBayes is the paper's choice;
// the others are the cited alternatives.
const (
	NaiveBayes ClassifierKind = iota
	LinearSVM
	WeightedLogReg
)

// Config tunes the pipeline.
type Config struct {
	// SnippetN is the sentences-per-snippet window; 0 means 3.
	SnippetN int
	// TopK documents fetched per smart query; 0 means 200.
	TopK int
	// NegativeCount is the size of the shared random negative sample;
	// 0 means 2000. (The paper used over 2 million; the scale is a
	// parameter.)
	NegativeCount int
	// NoiseIterations caps the Brodley-style iterations; 0 means 2
	// (Table 1 reports "results after two iterations").
	NoiseIterations int
	// Oversample is the pure-positive oversampling factor; 0 means 3.
	Oversample int
	// Classifier selects the family; default NaiveBayes.
	Classifier ClassifierKind
	// Policy is the feature-abstraction policy; nil means the paper's
	// default (PA entities, IV content POS) unless AutoPolicy is set.
	Policy feature.Policy
	// AutoPolicy derives the policy from pure positives vs negatives by
	// relative information gain (Section 3.2.2). Requires pure
	// positives at AddDriver time.
	AutoPolicy bool
	// Seed drives sampling and SGD; fully deterministic per seed.
	Seed int64
	// MissRate injects NER errors (robustness experiments); 0 is off.
	MissRate float64
	// FeatureTopK applies the paper's classical feature selection
	// (Section 3.2.1): only the top-k features by the chosen measure,
	// computed on the training data, are retained. 0 means 300;
	// negative disables selection.
	FeatureTopK int
	// FeatureMeasure selects the ranking statistic; the zero value is
	// chi-square.
	FeatureMeasure feature.SelectionMeasure
	// SemiSupervised replaces the Brodley-style noise-elimination loop
	// with the EM of Nigam et al. [10]: pure positives and negatives
	// are the labeled data and the noisy positives are treated as
	// unlabeled. Requires pure positives; only meaningful with the
	// naïve Bayes classifier.
	SemiSupervised bool
	// Metrics selects the registry the extraction hot path (snippet →
	// annotate → classify → rank) reports into; nil means obs.Default.
	// It scopes only this pipeline: the train, gather, and index
	// packages always report into the process-wide obs.Default.
	Metrics *obs.Registry
	// DisableMetrics turns extraction-pipeline instrumentation off —
	// the control arm of the observability-overhead benchmark. Like
	// Metrics, it does not affect train/gather/index metrics.
	DisableMetrics bool
	// Shards is the search-index shard count (or, with IndexDir, the
	// writer-lane count) used when BuildWebEngine builds a web from this
	// Config; 0 means GOMAXPROCS. It does not re-shard a web built
	// elsewhere. Ranked results are identical for any shard count.
	Shards int
	// CacheSize is the search-index query-result cache capacity in
	// entries, applied like Shards at web-build time; 0 means
	// index.DefaultCacheSize, negative disables caching.
	CacheSize int
	// Fetch is the data-gathering fetch policy — retry/backoff/breaker
	// settings and optional fault injection — applied by System.Crawl.
	// The zero value means gather's documented defaults and no injected
	// faults.
	Fetch gather.FetchOptions
	// IndexDir, when non-empty, backs webs built by BuildWebEngine with
	// the persistent segment index rooted at this directory instead of
	// the in-RAM sharded index: documents committed there survive
	// restarts and are re-opened, not re-indexed. Ranked results are
	// identical to the in-RAM engine's. Empty keeps the in-RAM index.
	IndexDir string
	// SegmentFlushDocs is the per-writer memtable size, in documents,
	// at which the persistent index seals and flushes a segment; 0
	// means index.DefaultFlushDocs. Only meaningful with IndexDir.
	SegmentFlushDocs int
	// MergeFactor is the persistent index's tiered merge fan-in; 0
	// means index.DefaultMergeFactor. Only meaningful with IndexDir.
	MergeFactor int
}

func (c Config) withDefaults() Config {
	if c.SnippetN == 0 {
		c.SnippetN = snippet.DefaultN
	}
	if c.TopK == 0 {
		c.TopK = 200
	}
	if c.NegativeCount == 0 {
		c.NegativeCount = 2000
	}
	if c.NoiseIterations == 0 {
		c.NoiseIterations = 2
	}
	if c.Oversample == 0 {
		c.Oversample = noise.DefaultOversample
	}
	if c.FeatureTopK == 0 {
		c.FeatureTopK = 300
	}
	return c
}

// TrainingStats reports what AddDriver did.
type TrainingStats struct {
	Generation train.Stats
	// NoisyPositives is the size of the distilled noisy positive set.
	NoisyPositives int
	// PurePositives is the number of supplied pure positive snippets
	// (before oversampling).
	PurePositives int
	// Negatives is the size of the shared negative sample.
	Negatives int
	// NoiseHistory records the per-iteration shrink of Pⁿ.
	NoiseHistory []noise.IterationStats
	// VocabularySize after training.
	VocabularySize int
}

// trainedDriver bundles a driver with its trained classifier.
type trainedDriver struct {
	spec   SalesDriver
	clf    classify.Classifier
	vocab  *feature.Vocab
	policy feature.Policy
	stats  TrainingStats
}

// System is a configured ETAP instance over one web.
type System struct {
	web *web.Web
	ann *annotate.Annotator
	rec *ner.Recognizer
	cfg Config
	met *pipelineMetrics // nil when Config.DisableMetrics

	// drivers is add-only: AddDriver and ImportDriver reject a
	// duplicate ID, which keeps stash entries current.
	drivers map[string]*trainedDriver
	stash   batchStash
	// negatives are shared across drivers ("The same set of negative
	// class snippets can be used across different sales-driver
	// categories").
	negatives []train.Snippet
}

// New builds a system over w.
func New(w *web.Web, cfg Config) *System {
	cfg = cfg.withDefaults()
	var opts []ner.Option
	if cfg.MissRate > 0 {
		opts = append(opts, ner.WithMissRate(cfg.MissRate, cfg.Seed))
	}
	rec := ner.NewRecognizer(opts...)
	sys := &System{
		web:     w,
		ann:     annotate.New(rec),
		rec:     rec,
		cfg:     cfg,
		drivers: make(map[string]*trainedDriver),
	}
	if !cfg.DisableMetrics {
		sys.met = newPipelineMetrics(cfg.Metrics)
	}
	return sys
}

// Annotator exposes the system's annotation pipeline.
func (s *System) Annotator() *annotate.Annotator { return s.ann }

// Recognizer exposes the system's entity recognizer.
func (s *System) Recognizer() *ner.Recognizer { return s.rec }

// Web exposes the underlying web.
func (s *System) Web() *web.Web { return s.web }

// Crawl runs the focused crawler over the system's web with the
// system's fetch policy threaded in: when the crawl supplies no
// Fetcher and the config enables fault injection, the web is wrapped
// in a FaultFetcher; when the crawl's retry settings are zero, the
// system's take effect. Explicit per-crawl settings always win. The
// context bounds the crawl and propagates into every fetch attempt.
func (s *System) Crawl(ctx context.Context, cfg gather.CrawlConfig) gather.CrawlResult {
	if cfg.Fetcher == nil && s.cfg.Fetch.Fault != nil {
		cfg.Fetcher = web.NewFaultFetcher(s.web, *s.cfg.Fetch.Fault)
	}
	if cfg.Retry.IsZero() {
		cfg.Retry = s.cfg.Fetch.Retry
	}
	return gather.Crawl(ctx, s.web, cfg)
}

// Drivers returns the IDs of the trained drivers, in no particular order.
func (s *System) Drivers() []string {
	out := make([]string, 0, len(s.drivers))
	for id := range s.drivers {
		out = append(out, id)
	}
	return out
}

// ErrUnknownDriver is returned for operations on drivers that were never
// added.
var ErrUnknownDriver = errors.New("core: unknown sales driver")

// ErrNoTrainingData is returned when smart queries produce no noisy
// positive snippets.
var ErrNoTrainingData = errors.New("core: smart queries produced no noisy positive data")

// AddDriver trains the two-class classifier for one sales driver:
// noisy-positive generation via smart queries and entity filters, shared
// negative sampling, feature abstraction, and iterative noise
// elimination. purePositives (possibly empty) are the manually labeled
// snippets; they are oversampled per the configuration.
func (s *System) AddDriver(d SalesDriver, purePositives []string) (TrainingStats, error) {
	if d.ID == "" {
		return TrainingStats{}, errors.New("core: sales driver needs an ID")
	}
	if _, dup := s.drivers[d.ID]; dup {
		return TrainingStats{}, fmt.Errorf("core: driver %q already added", d.ID)
	}
	trainStart := time.Now()

	spec := train.Spec{SmartQueries: d.SmartQueries, Filter: d.Filter}
	noisy, genStats := train.NoisyPositives(s.web, s.ann, spec, train.Config{
		TopK:     s.cfg.TopK,
		SnippetN: s.cfg.SnippetN,
	})
	if len(noisy) == 0 && len(purePositives) == 0 {
		return TrainingStats{}, ErrNoTrainingData
	}
	if s.negatives == nil {
		s.negatives = train.Negatives(s.web, s.ann, s.cfg.NegativeCount, s.cfg.SnippetN, s.cfg.Seed)
	}

	pureUnits := make([][]annotate.Unit, len(purePositives))
	for i, t := range purePositives {
		pureUnits[i] = s.ann.Annotate(t)
	}

	// Abstraction policy: fixed, default, or RIG-derived.
	policy := s.cfg.Policy
	if policy == nil {
		if s.cfg.AutoPolicy {
			var labeled []feature.Labeled
			for _, u := range pureUnits {
				labeled = append(labeled, feature.Labeled{Units: u, Label: true})
			}
			for _, n := range s.negatives {
				labeled = append(labeled, feature.Labeled{Units: n.Units, Label: false})
			}
			policy = feature.ChoosePolicy(labeled, feature.AllCategories())
		} else {
			policy = feature.DefaultPolicy()
		}
	}

	// Extract feature lists once, on every core; apply classical feature
	// selection (Section 3.2.1) computed on the training data.
	units := make([][]annotate.Unit, 0, len(pureUnits)+len(noisy)+len(s.negatives))
	units = append(units, pureUnits...)
	for _, n := range noisy {
		units = append(units, n.Units)
	}
	for _, n := range s.negatives {
		units = append(units, n.Units)
	}
	featLists := make([][]string, len(units))
	par.For(0, len(units), func(i int) { featLists[i] = feature.Extract(units[i], policy) })
	labels := make([]bool, len(units))
	for i := range labels {
		labels[i] = i < len(pureUnits)+len(noisy)
	}

	vocab := feature.NewVocab()
	if s.cfg.FeatureTopK > 0 {
		keep := feature.TopK(featLists, labels, s.cfg.FeatureMeasure, s.cfg.FeatureTopK)
		// Intern exactly the selected features; Vectorize(grow=false)
		// then drops everything else, at training and inference alike.
		for _, f := range sortedKeys(keep) {
			vocab.ID(f)
		}
	} else {
		for _, fl := range featLists {
			for _, f := range fl {
				vocab.ID(f)
			}
		}
	}

	nPure := len(pureUnits)
	var pureVecs, noisyVecs, negVecs []feature.Vector
	for i, fl := range featLists {
		v := feature.Vectorize(vocab, fl, false)
		switch {
		case i < nPure:
			pureVecs = append(pureVecs, v)
		case i < nPure+len(noisy):
			noisyVecs = append(noisyVecs, v)
		default:
			negVecs = append(negVecs, v)
		}
	}

	var clf classify.Classifier
	var history []noise.IterationStats
	if s.cfg.SemiSupervised {
		// EM over the noisy positives as unlabeled data [10].
		var labeledEx []classify.Example
		for _, x := range pureVecs {
			for k := 0; k < s.cfg.Oversample; k++ {
				labeledEx = append(labeledEx, classify.Example{X: x, Label: true})
			}
		}
		for _, x := range negVecs {
			labeledEx = append(labeledEx, classify.Example{X: x, Label: false})
		}
		clf = classify.TrainNaiveBayesEM(labeledEx, noisyVecs,
			classify.NaiveBayesConfig{}, s.cfg.NoiseIterations+3, 1)
	} else {
		res := noise.Learn(pureVecs, noisyVecs, negVecs, noise.Config{
			Train:         s.trainer(),
			MaxIterations: s.cfg.NoiseIterations,
			Oversample:    s.cfg.Oversample,
		})
		clf = res.Classifier
		history = res.History
	}

	stats := TrainingStats{
		Generation:     genStats,
		NoisyPositives: len(noisy),
		PurePositives:  len(purePositives),
		Negatives:      len(s.negatives),
		NoiseHistory:   history,
		VocabularySize: vocab.Size(),
	}
	s.drivers[d.ID] = &trainedDriver{
		spec:   d,
		clf:    clf,
		vocab:  vocab,
		policy: policy,
		stats:  stats,
	}
	if s.met != nil {
		s.met.trainDur.Observe(time.Since(trainStart).Seconds())
	}
	return stats, nil
}

// trainer returns the per-iteration training function for the configured
// classifier family.
func (s *System) trainer() noise.Trainer {
	switch s.cfg.Classifier {
	case LinearSVM:
		return func(ex []classify.Example) classify.Classifier {
			return classify.TrainSVM(ex, classify.SVMConfig{Seed: s.cfg.Seed})
		}
	case WeightedLogReg:
		return func(ex []classify.Example) classify.Classifier {
			return classify.TrainLogReg(ex, classify.LogRegConfig{
				Seed: s.cfg.Seed, PosWeight: 0.8,
			})
		}
	default:
		return func(ex []classify.Example) classify.Classifier {
			return classify.TrainNaiveBayes(ex, classify.NaiveBayesConfig{})
		}
	}
}

// Score returns the positive-class probability of one snippet text for a
// driver.
func (s *System) Score(driverID, text string) (float64, error) {
	td, ok := s.drivers[driverID]
	if !ok {
		return 0, ErrUnknownDriver
	}
	units := s.ann.Annotate(text)
	x := feature.Vectorize(td.vocab, feature.Extract(units, td.policy), false)
	return td.clf.Prob(x), nil
}

// ExtractEvents runs the event identification component over pages: each
// page is split into snippets, annotated, scored, and snippets at or
// above threshold become trigger events. The subject company is the first
// ORG entity in the snippet (when any). It is ExtractEventsParallel with
// one worker: pages are scored in order on the caller's goroutine.
func (s *System) ExtractEvents(driverID string, pages []*web.Page, threshold float64) ([]rank.Event, error) {
	return s.ExtractEventsParallel(driverID, pages, threshold, 1)
}

// ExtractAllEvents runs event identification across every trained
// driver — the per-document unit of work of the streaming ingest path
// (internal/alert), where a document's driver is not known in advance.
// Drivers run in sorted-ID order so the event stream is deterministic.
func (s *System) ExtractAllEvents(pages []*web.Page, threshold float64) []rank.Event {
	//etaplint:ignore context-plumbing -- compatibility wrapper; no cancellation crosses this boundary
	return s.ExtractAllEventsTraced(context.Background(), pages, threshold)
}

// ExtractAllEventsTraced is ExtractAllEvents contributing one
// per-driver extraction span to the document trace carried by ctx —
// a no-op without one, so the batch path pays nothing. The streaming
// ingest worker (internal/alert) calls this form. Each page is split,
// annotated and abstracted once per distinct policy, in page order;
// every driver then classifies the same snippets inside its span, so
// the events come out driver-major exactly as one ExtractEvents call
// per driver would return them.
func (s *System) ExtractAllEventsTraced(ctx context.Context, pages []*web.Page, threshold float64) []rank.Event {
	sc := s.newScorer()
	if len(sc.drivers) == 0 {
		return nil
	}
	if threshold <= 0 {
		threshold = 0.5
	}
	gen := snippet.Generator{N: s.cfg.SnippetN}
	annotated := make([][]annotatedSnippet, len(pages))
	for i, page := range pages {
		annotated[i] = s.annotatePage(gen, page)
		s.abstract(sc, annotated[i])
	}
	var events []rank.Event
	for d, td := range sc.drivers {
		_, sp := obs.StartDSpan(ctx, "extract")
		sp.SetAttr("driver", td.spec.ID)
		if s.met != nil {
			s.met.runs.Inc()
		}
		before := len(events)
		for _, snips := range annotated {
			events = s.classify(sc, d, snips, threshold, events)
		}
		sp.SetAttr("events", strconv.Itoa(len(events)-before))
		sp.End()
	}
	return events
}

// annotatedSnippet is a snippet with its annotation and, once a scorer
// has abstracted it, its feature lists: what every driver's classifier
// scores.
type annotatedSnippet struct {
	snippet.Snippet
	units []annotate.Unit
	// feats[k] is the snippet under the scorer's policies[k];
	// abstractDur is the time abstracting them took, when metrics are
	// enabled.
	feats       [][]string
	abstractDur time.Duration
}

// annotatePage splits one page into snippets and annotates each — the
// driver-independent half of extraction. When metrics are enabled it
// attributes wall time to the snippet and annotate stages.
func (s *System) annotatePage(gen snippet.Generator, page *web.Page) []annotatedSnippet {
	m := s.met
	var t time.Time
	if m != nil {
		t = time.Now()
	}
	snips := gen.Split(page.URL, page.Text)
	if m != nil {
		m.snippetDur.Observe(time.Since(t).Seconds())
	}
	out := make([]annotatedSnippet, len(snips))
	for i, sn := range snips {
		if m != nil {
			t = time.Now()
		}
		out[i] = annotatedSnippet{Snippet: sn, units: s.ann.Annotate(sn.Text)}
		if m != nil {
			m.annotateDur.Observe(time.Since(t).Seconds())
		}
	}
	return out
}

// scorer is the trained drivers in sorted-ID order with their distinct
// abstraction policies: drivers that share a policy share the feature
// lists it abstracts, so a snippet is abstracted once per policy, not
// once per driver.
type scorer struct {
	drivers  []*trainedDriver
	policies []feature.Policy
	policyOf []int // drivers[d] abstracts with policies[policyOf[d]]
}

func (s *System) newScorer() *scorer {
	ids := s.Drivers()
	sort.Strings(ids)
	sc := &scorer{}
	for _, id := range ids {
		td := s.drivers[id]
		k := slices.IndexFunc(sc.policies, func(p feature.Policy) bool { return maps.Equal(p, td.policy) })
		if k < 0 {
			k = len(sc.policies)
			sc.policies = append(sc.policies, td.policy)
		}
		sc.drivers = append(sc.drivers, td)
		sc.policyOf = append(sc.policyOf, k)
	}
	return sc
}

// scoreSnippets scores one page's annotated snippets for every driver
// of sc: events[d] are drivers[d]'s trigger events, in snippet order.
func (s *System) scoreSnippets(sc *scorer, snips []annotatedSnippet, threshold float64) [][]rank.Event {
	s.abstract(sc, snips)
	events := make([][]rank.Event, len(sc.drivers))
	for d := range sc.drivers {
		events[d] = s.classify(sc, d, snips, threshold, nil)
	}
	return events
}

// abstract fills in each snippet's feature lists, one per policy of sc.
func (s *System) abstract(sc *scorer, snips []annotatedSnippet) {
	feats := make([][]string, len(snips)*len(sc.policies))
	for i := range snips {
		sn := &snips[i]
		var t time.Time
		if s.met != nil {
			t = time.Now()
		}
		sn.feats = feats[i*len(sc.policies) : (i+1)*len(sc.policies)]
		for k, p := range sc.policies {
			sn.feats[k] = feature.Extract(sn.units, p)
		}
		if s.met != nil {
			sn.abstractDur = time.Since(t)
		}
	}
}

// classify scores abstracted snippets against drivers[d]'s classifier
// and appends those at or above threshold to events as trigger events.
// The subject company is the first ORG entity in the snippet (when
// any). When metrics are enabled it counts snippets scored and events
// emitted, and observes the classify stage once per snippet: the
// driver's own scoring plus an equal share of the snippet's feature
// abstraction.
func (s *System) classify(sc *scorer, d int, snips []annotatedSnippet, threshold float64, events []rank.Event) []rank.Event {
	m := s.met
	td := sc.drivers[d]
	for i := range snips {
		sn := &snips[i]
		var t time.Time
		if m != nil {
			t = time.Now()
		}
		x := feature.Vectorize(td.vocab, sn.feats[sc.policyOf[d]], false)
		p := td.clf.Prob(x)
		if m != nil {
			m.classifyDur.Observe((time.Since(t) + sn.abstractDur/time.Duration(len(sc.drivers))).Seconds())
			m.snippets.Inc()
		}
		if p < threshold {
			continue
		}
		if m != nil {
			m.events.Inc()
		}
		ev := rank.Event{
			SnippetID: sn.ID,
			Text:      sn.Text,
			Driver:    td.spec.ID,
			Score:     p,
			Company:   firstOrg(sn.units),
		}
		if td.spec.Orientation != nil {
			ev.Orientation = td.spec.Orientation.Score(sn.Text)
		}
		events = append(events, ev)
	}
	return events
}

// Stats returns the training statistics of a driver.
func (s *System) Stats(driverID string) (TrainingStats, error) {
	td, ok := s.drivers[driverID]
	if !ok {
		return TrainingStats{}, ErrUnknownDriver
	}
	return td.stats, nil
}

// Policy returns the feature-abstraction policy in effect for a driver.
func (s *System) Policy(driverID string) (feature.Policy, error) {
	td, ok := s.drivers[driverID]
	if !ok {
		return nil, ErrUnknownDriver
	}
	return td.policy, nil
}

// sortedKeys returns the map's keys in sorted order, for deterministic
// vocabulary ids.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func firstOrg(units []annotate.Unit) string {
	for _, u := range units {
		if u.Entity == ner.ORG {
			return u.Text
		}
	}
	return ""
}
