// Package gather implements ETAP's data-gathering component, modelled on
// the eShopMonitor tool the paper cites [2]: a focused crawler over the
// hyperlink graph with a relevance-prioritized frontier, content
// de-duplication, a source registry mixing crawl output with other
// collections, and a change monitor for re-visits.
package gather

import (
	"container/heap"
	"context"
	"hash/fnv"
	"sort"
	"strings"

	"etap/internal/obs"
	"etap/internal/par"
	"etap/internal/textproc"
	"etap/internal/web"
)

// Crawl progress reports into the process-wide registry: fetch volume,
// de-duplication hits, and the live frontier size (updated on every
// push and pop, and zeroed when the crawl returns, so a scrape
// mid-crawl shows how much work remains queued).
var (
	mPagesFetched = obs.Default.Counter("etap_gather_pages_fetched_total",
		"Pages fetched by the focused crawler.")
	mDuplicates = obs.Default.Counter("etap_gather_duplicates_total",
		"Pages skipped by exact or near-duplicate detection.")
	mFrontier = obs.Default.Gauge("etap_gather_frontier_size",
		"Prioritized URLs waiting in the crawl frontier.")
)

// CrawlConfig controls a focused crawl.
type CrawlConfig struct {
	// Seeds are the starting URLs.
	Seeds []string
	// Topic is a bag of words steering the frontier: pages whose text
	// shares more (stemmed) vocabulary with the topic are expanded
	// first. Empty means breadth-first.
	Topic []string
	// MaxPages bounds the number of fetched pages; 0 means 1000.
	MaxPages int
	// MaxDepth bounds link depth from the seeds; 0 means 6.
	MaxDepth int
	// MinRelevance prunes frontier entries scoring below it (only
	// meaningful with a Topic).
	MinRelevance float64
	// NearDupThreshold, when > 0, additionally skips pages whose
	// estimated Jaccard similarity to an already-fetched page is at or
	// above it (syndicated copies with small edits). Exact-content
	// de-duplication always applies.
	NearDupThreshold float64
	// Fetcher overrides the page source; nil fetches directly from the
	// web passed to Crawl. Wrap with web.NewFaultFetcher to exercise
	// the failure paths deterministically.
	Fetcher web.Fetcher
	// Retry tunes fetch retry/backoff and the per-host circuit
	// breaker; the zero value applies the library defaults.
	Retry RetryConfig
}

// CrawlResult is the outcome of a crawl.
type CrawlResult struct {
	// Pages are the fetched pages in fetch order.
	Pages []*web.Page
	// Duplicates counts pages skipped by content de-duplication.
	Duplicates int
	// Visited counts successful fetches (including duplicates).
	Visited int
	// Failed reports the frontier URLs the crawl abandoned — after
	// exhausting retries, on a permanent error, or because a host's
	// circuit breaker was open — instead of silently skipping them.
	Failed []FetchError
	// Retries counts fetch retries performed across the crawl.
	Retries int
}

// frontierItem is one prioritized URL.
type frontierItem struct {
	url   string
	depth int
	score float64
	seq   int // FIFO tie-break for determinism
	index int // heap position, maintained for heap.Fix re-prioritization
}

type frontier []*frontierItem

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if f[i].score != f[j].score {
		return f[i].score > f[j].score
	}
	return f[i].seq < f[j].seq
}
func (f frontier) Swap(i, j int) {
	f[i], f[j] = f[j], f[i]
	f[i].index = i
	f[j].index = j
}
func (f *frontier) Push(x any) {
	it := x.(*frontierItem)
	it.index = len(*f)
	*f = append(*f, it)
}
func (f *frontier) Pop() any {
	old := *f
	n := len(old)
	it := old[n-1]
	it.index = -1
	*f = old[:n-1]
	return it
}

// Crawl runs a focused crawl over w. The context bounds the whole
// crawl: cancellation or deadline expiry propagates into every fetch
// attempt, and the crawl stops expanding the frontier once ctx is done,
// returning the pages gathered so far.
func Crawl(ctx context.Context, w *web.Web, cfg CrawlConfig) CrawlResult {
	maxPages := cfg.MaxPages
	if maxPages <= 0 {
		maxPages = 1000
	}
	maxDepth := cfg.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 6
	}
	topic := stemSet(cfg.Topic)

	fetcher := cfg.Fetcher
	if fetcher == nil {
		fetcher = w
	}
	rt := newRetrier(fetcher, cfg.Retry)
	defer rt.finish()
	// The frontier gauge tracks the live queue on every push and pop,
	// and is zeroed on return: a crawl that exits with items still
	// queued abandons them, so leaving the last sampled size up would
	// go stale.
	defer mFrontier.Set(0)

	var res CrawlResult
	seen := map[string]bool{}
	queued := map[string]*frontierItem{}
	contentSeen := map[uint64]bool{}
	var nearDup *NearDupIndex
	if cfg.NearDupThreshold > 0 {
		nearDup = NewNearDupIndex(cfg.NearDupThreshold)
	}
	var fr frontier
	seq := 0
	push := func(url string, depth int, score float64) {
		if it, ok := queued[url]; ok {
			// Rediscovered via a better parent while still queued:
			// raise the item's priority (and take the shallower
			// depth) so the first discovery's low score doesn't lock
			// in a late fetch.
			if score > it.score {
				it.score = score
				if depth < it.depth {
					it.depth = depth
				}
				heap.Fix(&fr, it.index)
			}
			return
		}
		if seen[url] {
			return
		}
		seen[url] = true
		seq++
		it := &frontierItem{url: url, depth: depth, score: score, seq: seq}
		heap.Push(&fr, it)
		queued[url] = it
		mFrontier.Set(int64(fr.Len()))
	}
	for _, s := range cfg.Seeds {
		push(s, 0, 1)
	}

	for fr.Len() > 0 && len(res.Pages) < maxPages && ctx.Err() == nil {
		it := heap.Pop(&fr).(*frontierItem)
		delete(queued, it.url)
		mFrontier.Set(int64(fr.Len()))
		page, ferr := rt.do(ctx, it.url)
		if ferr != nil {
			res.Failed = append(res.Failed, *ferr)
			continue
		}
		res.Visited++
		mPagesFetched.Inc()
		h := contentHash(page.Text)
		if contentSeen[h] {
			res.Duplicates++
			mDuplicates.Inc()
			continue
		}
		contentSeen[h] = true
		if nearDup != nil && nearDup.Seen(page.Text) {
			res.Duplicates++
			mDuplicates.Inc()
			continue
		}
		res.Pages = append(res.Pages, page)

		if it.depth >= maxDepth {
			continue
		}
		score := relevance(page, topic)
		if len(topic) > 0 && score < cfg.MinRelevance {
			continue // do not expand irrelevant pages
		}
		for _, l := range page.Links {
			push(l, it.depth+1, score)
		}
	}
	res.Retries = rt.retries()
	return res
}

// relevance scores a page against the topic: fraction of topic stems
// present in the page.
func relevance(p *web.Page, topic map[string]bool) float64 {
	if len(topic) == 0 {
		return 0
	}
	words := textproc.Words(p.Title + " " + p.Text)
	found := map[string]bool{}
	for _, w := range words {
		s := textproc.Stem(w)
		if topic[s] {
			found[s] = true
		}
	}
	return float64(len(found)) / float64(len(topic))
}

func stemSet(words []string) map[string]bool {
	out := map[string]bool{}
	for _, w := range words {
		for _, t := range textproc.Words(w) {
			out[textproc.Stem(t)] = true
		}
	}
	return out
}

// contentHash fingerprints page text for de-duplication, ignoring case
// and whitespace differences.
func contentHash(text string) uint64 {
	h := fnv.New64a()
	for _, w := range textproc.Words(text) {
		h.Write([]byte(w))
		h.Write([]byte{' '})
	}
	return h.Sum64()
}

// --- source registry -----------------------------------------------------

// Source yields documents for the collection D of Section 2 ("gathers a
// collection of documents D from various sources such as proprietary
// databases and corpora as well as from a focused crawl of the Web").
type Source interface {
	// Name identifies the source.
	Name() string
	// Documents returns the source's pages.
	Documents() []*web.Page
}

// CrawlSource adapts a crawl result into a Source.
type CrawlSource struct {
	SourceName string
	Result     CrawlResult
}

// Name implements Source.
func (s CrawlSource) Name() string { return s.SourceName }

// Documents implements Source.
func (s CrawlSource) Documents() []*web.Page { return s.Result.Pages }

// StaticSource is a fixed page list (a proprietary database or corpus).
type StaticSource struct {
	SourceName string
	Pages      []*web.Page
}

// Name implements Source.
func (s StaticSource) Name() string { return s.SourceName }

// Documents implements Source.
func (s StaticSource) Documents() []*web.Page { return s.Pages }

// Collect merges sources into one de-duplicated collection, stable in
// (source, page) order. Content fingerprinting — the expensive,
// tokenize-every-page part of de-duplication — runs concurrently across
// a worker pool; the merge itself stays sequential so the kept-page
// order is deterministic.
func Collect(sources ...Source) []*web.Page {
	var all []*web.Page
	for _, s := range sources {
		all = append(all, s.Documents()...)
	}
	hashes := contentHashAll(all)

	var out []*web.Page
	seenURL := map[string]bool{}
	seenContent := map[uint64]bool{}
	for i, p := range all {
		if seenURL[p.URL] || seenContent[hashes[i]] {
			continue
		}
		seenURL[p.URL] = true
		seenContent[hashes[i]] = true
		out = append(out, p)
	}
	return out
}

// contentHashAll fingerprints every page through par.For, preserving
// order.
func contentHashAll(pages []*web.Page) []uint64 {
	out := make([]uint64, len(pages))
	par.For(0, len(pages), func(i int) { out[i] = contentHash(pages[i].Text) })
	return out
}

// --- change monitor --------------------------------------------------------

// Monitor tracks page content across visits and reports changes —
// the eShopMonitor behaviour that keeps the collection fresh.
type Monitor struct {
	hashes map[string]uint64
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor { return &Monitor{hashes: make(map[string]uint64)} }

// Observe records the page's current content and reports whether it
// changed since the last observation. First observations report true
// (everything is new).
func (m *Monitor) Observe(p *web.Page) bool {
	h := contentHash(p.Text)
	old, seen := m.hashes[p.URL]
	m.hashes[p.URL] = h
	return !seen || old != h
}

// Changed filters the pages that are new or modified since their last
// observation, sorted by URL for determinism.
func (m *Monitor) Changed(pages []*web.Page) []*web.Page {
	var out []*web.Page
	for _, p := range pages {
		if m.Observe(p) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return strings.Compare(out[i].URL, out[j].URL) < 0 })
	return out
}
