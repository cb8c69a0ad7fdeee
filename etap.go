// Package etap is a from-scratch Go implementation of ETAP (Electronic
// Trigger Alert Program), the automatic sales-lead generation system of
// Ramakrishnan et al., "Automatic Sales Lead Generation from Web Data"
// (ICDE 2006).
//
// ETAP discovers sales leads by extracting trigger events — events of
// corporate relevance indicative of a propensity to purchase — from Web
// data. The pipeline has three components:
//
//   - data gathering: a focused crawl plus other sources assemble a
//     document collection (package internal/gather over a synthetic Web);
//   - event identification: documents are split into 3-sentence snippets,
//     annotated with named entities and parts of speech, abstracted into
//     features (presence-absence for entity categories, instance-valued
//     for content words), and classified per sales driver by a naïve
//     Bayes classifier trained on automatically generated noisy-positive
//     data with iterative noise elimination;
//   - ranking: trigger events are ranked by classifier confidence or by a
//     semantic-orientation lexicon, and aggregated per company with a
//     mean-reciprocal-rank score.
//
// This package is the public facade: it re-exports the pipeline types and
// the synthetic-web substrate that replaces the live 2005 Web the paper
// crawled. See the examples directory for runnable end-to-end programs
// and internal/experiments for the harness regenerating every table and
// figure of the paper's evaluation.
//
// # Quick start
//
//	docs := etap.GenerateWorld(etap.WorldConfig{Seed: 1})
//	web := etap.BuildWeb(docs)
//	sys := etap.NewSystem(web, etap.Config{Seed: 1})
//	for _, d := range etap.DefaultDrivers() {
//		sys.AddDriver(d, nil)
//	}
//	events, _ := sys.ExtractEvents("change-in-management", web.Search(`"new ceo"`, 50), 0.5)
//	for _, ev := range etap.RankByScore(events) {
//		fmt.Println(ev.Rank, ev.Score, ev.Text)
//	}
package etap

import (
	"context"

	"etap/internal/classify"
	"etap/internal/core"
	"etap/internal/corpus"
	"etap/internal/gather"
	"etap/internal/index"
	"etap/internal/ner"
	"etap/internal/obs"
	"etap/internal/rank"
	"etap/internal/train"
	"etap/internal/web"
)

// System is the ETAP pipeline: driver registration, event identification
// and scoring over one web.
type System = core.System

// Config tunes the pipeline (snippet size, smart-query depth, noise
// iterations, classifier family, feature policy, seeds).
type Config = core.Config

// SalesDriver describes one sales driver: smart queries, entity filter
// and optional orientation lexicon.
type SalesDriver = core.SalesDriver

// TrainingStats reports what AddDriver did.
type TrainingStats = core.TrainingStats

// Classifier family selectors for Config.Classifier.
const (
	NaiveBayes     = core.NaiveBayes
	LinearSVM      = core.LinearSVM
	WeightedLogReg = core.WeightedLogReg
)

// NewSystem builds an ETAP system over a web.
func NewSystem(w *Web, cfg Config) *System { return core.New(w, cfg) }

// DefaultDrivers returns the paper's three sales drivers (mergers &
// acquisitions, change in management, revenue growth), fully configured.
func DefaultDrivers() []SalesDriver { return core.DefaultDrivers() }

// Driver identifies a built-in sales driver.
type Driver = corpus.Driver

// The three sales drivers of the paper.
const (
	MergersAcquisitions = corpus.MergersAcquisitions
	ChangeInManagement  = corpus.ChangeInManagement
	RevenueGrowth       = corpus.RevenueGrowth
)

// Document is one page of the synthetic web, with per-sentence ground
// truth.
type Document = corpus.Document

// WorldConfig sizes the synthetic web.
type WorldConfig = corpus.Config

// WorldGenerator emits documents and labeled snippets deterministically.
type WorldGenerator = corpus.Generator

// NewWorldGenerator builds a seeded world generator, for callers that
// need labeled evaluation snippets in addition to the document set.
func NewWorldGenerator(cfg WorldConfig) *WorldGenerator { return corpus.NewGenerator(cfg) }

// GenerateWorld builds the full synthetic web document set.
func GenerateWorld(cfg WorldConfig) []Document { return corpus.NewGenerator(cfg).World() }

// Web is the page store with a search-engine view.
type Web = web.Web

// SearchEngine is the query surface of the segment index backing a Web
// (see Web.Index), whether durable or memory-only.
type SearchEngine = index.Engine

// Page is one web page.
type Page = web.Page

// NewWeb returns an empty web; add pages then Freeze.
func NewWeb() *Web { return web.New() }

// BuildWeb indexes generated documents into a frozen web.
func BuildWeb(docs []Document) *Web { return core.BuildWeb(docs) }

// BuildWebEngine is BuildWeb honouring the Config's search-index knobs:
// Shards selects the index's writer-lane count (0 = GOMAXPROCS) and
// CacheSize the query-result cache capacity (0 = default, negative =
// disabled). With IndexDir set, the index is durable, rooted there —
// documents committed in a previous run re-open instead of
// re-indexing, and the returned web must be Closed to flush and
// release the index. Page order and ranked results are identical with
// or without IndexDir and for any lane count.
func BuildWebEngine(docs []Document, cfg Config) (*Web, error) {
	return core.BuildWebEngine(docs, cfg)
}

// CrawlConfig controls a focused crawl of the data-gathering component.
type CrawlConfig = gather.CrawlConfig

// CrawlResult is the outcome of a focused crawl.
type CrawlResult = gather.CrawlResult

// Crawl runs the focused crawler over a web. The context bounds the
// crawl and propagates into every fetch attempt.
func Crawl(ctx context.Context, w *Web, cfg CrawlConfig) CrawlResult {
	return gather.Crawl(ctx, w, cfg)
}

// Fetcher is the page-retrieval seam the crawler fetches through; the
// web itself implements it, and FaultFetcher wraps any implementation
// with deterministic failures.
type Fetcher = web.Fetcher

// FaultConfig tunes deterministic fault injection for a FaultFetcher.
type FaultConfig = web.FaultConfig

// NewFaultFetcher wraps a fetcher with seeded transient/permanent
// failures and optional latency, for resilience testing.
func NewFaultFetcher(next Fetcher, cfg FaultConfig) Fetcher {
	return web.NewFaultFetcher(next, cfg)
}

// RetryConfig tunes the crawler's retry/backoff and per-host circuit
// breaker.
type RetryConfig = gather.RetryConfig

// FetchError reports one URL the crawler gave up on, with the reason.
type FetchError = gather.FetchError

// FetchOptions bundles the fetch policy a Config threads into
// System.Crawl: retry settings plus optional fault injection.
type FetchOptions = gather.FetchOptions

// Event is one extracted trigger event.
type Event = rank.Event

// Ranked is an event with its assigned rank.
type Ranked = rank.Ranked

// CompanyScore is the Equation 2 company aggregate.
type CompanyScore = rank.CompanyScore

// Lexicon is a semantic-orientation lexicon (phrase -> weight).
type Lexicon = rank.Lexicon

// RankByScore orders events by classifier confidence (Figure 7).
func RankByScore(events []Event) []Ranked { return rank.ByScore(events) }

// RankByOrientation orders events by semantic-orientation strength
// (Figure 8).
func RankByOrientation(events []Event) []Ranked { return rank.ByOrientation(events) }

// CompanyMRR aggregates ranked events per company (Equation 2).
func CompanyMRR(ranked []Ranked) []CompanyScore { return rank.CompanyMRR(ranked) }

// RankByGrowthFigure orders revenue-growth events by the magnitude of
// the exact percentage change extracted from each snippet — the paper's
// driver-specific alternative to lexicon scoring.
func RankByGrowthFigure(events []Event) []Ranked {
	return rank.ByGrowthFigure(events, ner.NewRecognizer())
}

// CompanyProfile is the per-company aggregate view (events per driver,
// MRR, best event, latest resolvable date).
type CompanyProfile = rank.Profile

// BuildCompanyProfiles groups ranked trigger events into company
// profiles with alias resolution and event-date extraction relative to
// the given reference year/month.
func BuildCompanyProfiles(ranked []Ranked, refYear, refMonth int) []CompanyProfile {
	return rank.BuildProfiles(ranked, ner.NewRecognizer(),
		rank.Date{Year: refYear, Month: refMonth})
}

// SuggestQueries mines pure-positive snippets for high-yield smart-query
// phrases against a background sample (Section 3.3.1's "smart queries
// could be obtained by analyzing the pure positive data set").
func SuggestQueries(purePositives, background []string, k int) []string {
	return train.SuggestQueries(purePositives, background, k)
}

// DefaultRevenueLexicon is the manual revenue-growth orientation lexicon.
func DefaultRevenueLexicon() Lexicon { return rank.DefaultRevenueLexicon() }

// InduceLexicon builds an orientation lexicon automatically from seed
// words via PMI-IR co-occurrence statistics over the web's search index
// (Turney's method, the paper's cited alternative to manual lexicons).
func InduceLexicon(w *Web, posSeeds, negSeeds, candidates []string) Lexicon {
	return rank.InduceLexicon(w.Index(), posSeeds, negSeeds, candidates)
}

// Metrics is a binary confusion matrix with precision/recall/F1.
type Metrics = classify.Metrics

// MetricsRegistry is the observability registry: atomic counters,
// gauges and fixed-bucket histograms, rendered as Prometheus text
// exposition or a JSON snapshot.
type MetricsRegistry = obs.Registry

// DefaultMetrics returns the process-wide registry every pipeline
// package reports into — the one etapd serves at /metrics and
// /debug/vars.
func DefaultMetrics() *MetricsRegistry { return obs.Default }
