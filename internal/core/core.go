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
	"slices"
	"strconv"
	"sync/atomic"
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

// trainedDriver bundles a driver with its trained classifier. vocab
// names the classifier's features, for snapshots; proj maps the
// system's feature table onto it, for scoring.
type trainedDriver struct {
	spec   SalesDriver
	clf    classify.Classifier
	vocab  *feature.Vocab
	proj   feature.Projection
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
	// duplicate ID, which keeps stash entries current. Each of them
	// rebuilds the scorer every extraction and Score call uses.
	drivers map[string]*trainedDriver
	sc      atomic.Pointer[scorer]
	stash   batchStash
	// table gives every feature a driver was trained or imported with
	// an id; only AddDriver and ImportDriver grow it.
	table *feature.Table
	// The negatives are shared across drivers ("The same set of
	// negative class snippets can be used across different
	// sales-driver categories"): negTexts holds the sampled snippets,
	// sampled by the first AddDriver, and negIDs their features under
	// the system's policy, abstracted once. Without a fixed policy
	// (AutoPolicy) each AddDriver annotates negTexts afresh.
	negTexts []string
	negIDs   [][]int32
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
		table:   feature.NewTable(),
	}
	if !cfg.DisableMetrics {
		sys.met = newPipelineMetrics(cfg.Metrics)
	}
	sys.rebuildScorer()
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
	var negUnits [][]annotate.Unit // the negatives' annotation, when this call made one
	if s.negTexts == nil {
		negs := train.Negatives(s.web, s.ann, s.cfg.NegativeCount, s.cfg.SnippetN, s.cfg.Seed)
		s.negTexts = make([]string, len(negs))
		negUnits = make([][]annotate.Unit, len(negs))
		for i, n := range negs {
			s.negTexts[i], negUnits[i] = n.Text, n.Units
		}
	}

	pureUnits := make([][]annotate.Unit, len(purePositives))
	for i, t := range purePositives {
		pureUnits[i] = s.ann.Annotate(t)
	}

	// Abstraction policy: fixed, default, or RIG-derived. A derived
	// policy differs per driver, so the negatives' kept features do not
	// serve it: their text is annotated again.
	policy := s.cfg.Policy
	auto := policy == nil && s.cfg.AutoPolicy
	switch {
	case auto:
		if negUnits == nil {
			negUnits = make([][]annotate.Unit, len(s.negTexts))
			par.For(0, len(negUnits), func(i int) { negUnits[i] = s.ann.Annotate(s.negTexts[i]) })
		}
		var labeled []feature.Labeled
		for _, u := range pureUnits {
			labeled = append(labeled, feature.Labeled{Units: u, Label: true})
		}
		for _, u := range negUnits {
			labeled = append(labeled, feature.Labeled{Units: u, Label: false})
		}
		policy = feature.ChoosePolicy(labeled, feature.AllCategories())
	case policy == nil:
		policy = feature.DefaultPolicy()
	}

	// Abstract every training snippet to feature-table ids, in order,
	// growing the table; the negatives keep theirs for the next driver.
	// Then apply classical feature selection (Section 3.2.1) computed
	// on the training data.
	compiled := s.table.Compile(policy)
	intern := func(units [][]annotate.Unit) [][]int32 {
		lists := make([][]int32, len(units))
		for i, u := range units {
			lists[i] = compiled.AppendInterned(nil, u)
		}
		return lists
	}
	negIDs := s.negIDs
	if auto || negIDs == nil {
		negIDs = intern(negUnits)
		if !auto {
			s.negIDs = negIDs
		}
	}
	lists := intern(pureUnits)
	for _, n := range noisy {
		lists = append(lists, compiled.AppendInterned(nil, n.Units))
	}
	lists = append(lists, negIDs...)
	labels := make([]bool, len(lists))
	for i := range labels {
		labels[i] = i < len(pureUnits)+len(noisy)
	}

	var vocab *feature.Vocab
	if s.cfg.FeatureTopK > 0 {
		// Only the selected features are in the vocabulary, interned in
		// name order; vectorization drops everything else, at training
		// and inference alike.
		vocab = feature.VocabFromNames(s.table.TopK(lists, labels, s.cfg.FeatureMeasure, s.cfg.FeatureTopK))
	} else {
		vocab = s.table.Vocab(lists)
	}
	proj := s.table.Project(vocab)

	nPure := len(pureUnits)
	var pureVecs, noisyVecs, negVecs []feature.Vector
	var counts feature.Counts
	for i, ids := range lists {
		v := proj.AppendVector(nil, &counts, ids)
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
		Negatives:      len(s.negTexts),
		NoiseHistory:   history,
		VocabularySize: vocab.Size(),
	}
	s.drivers[d.ID] = &trainedDriver{
		spec:   d,
		clf:    clf,
		vocab:  vocab,
		proj:   proj,
		policy: policy,
		stats:  stats,
	}
	s.rebuildScorer()
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
// driver, through the scoring kernel's path.
func (s *System) Score(driverID, text string) (float64, error) {
	sc := s.scorer()
	d := slices.IndexFunc(sc.drivers, func(td *trainedDriver) bool { return td.spec.ID == driverID })
	if d < 0 {
		return 0, ErrUnknownDriver
	}
	w := getScratch(sc)
	defer w.release()
	w.units = s.ann.AppendUnits(w.units[:0], text)
	k := sc.policyOf[d]
	w.feats[k] = sc.policies[k].AppendIDs(w.feats[k][:0], w.units)
	return sc.prob(w, d), nil
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
// ingest worker (internal/alert) calls this form. The scoring kernel
// takes each snippet, in page order, through annotation, abstraction
// and every driver's classifier at once, so the driver spans all cover
// that one pass; each carries its driver's ID and event count. The
// events come out driver-major exactly as one ExtractEvents call per
// driver would return them.
func (s *System) ExtractAllEventsTraced(ctx context.Context, pages []*web.Page, threshold float64) []rank.Event {
	sc := s.scorer()
	if len(sc.drivers) == 0 {
		return nil
	}
	if threshold <= 0 {
		threshold = 0.5
	}
	spans := make([]*obs.DSpan, len(sc.drivers))
	for d, td := range sc.drivers {
		_, spans[d] = obs.StartDSpan(ctx, "extract")
		spans[d].SetAttr("driver", td.spec.ID)
		if s.met != nil {
			s.met.runs.Inc()
		}
	}
	w := getScratch(sc)
	defer w.release()
	for _, page := range pages {
		s.scorePage(sc, w, page, threshold)
	}
	var events []rank.Event
	for d, td := range sc.drivers {
		before := len(events)
		events = appendDriverEvents(events, w.events, td.spec.ID)
		spans[d].SetAttr("events", strconv.Itoa(len(events)-before))
		spans[d].End()
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
