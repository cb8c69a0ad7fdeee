package gather

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"etap/internal/corpus"
	"etap/internal/web"
)

// chainWeb builds a small hand-wired web: seed -> biz pages -> noise.
func chainWeb() *web.Web {
	w := web.New()
	w.AddPage(web.Page{URL: "u:seed", Text: "business news portal with merger coverage",
		Links: []string{"u:biz1", "u:noise1"}})
	w.AddPage(web.Page{URL: "u:biz1", Text: "Acme merger with Widget announced in a large deal",
		Links: []string{"u:biz2"}})
	w.AddPage(web.Page{URL: "u:biz2", Text: "The acquisition deal closed and the merger completed",
		Links: []string{"u:deep"}})
	w.AddPage(web.Page{URL: "u:noise1", Text: "The weather was pleasant and the park opened",
		Links: []string{"u:noise2"}})
	w.AddPage(web.Page{URL: "u:noise2", Text: "A recipe for summer salads with fresh herbs",
		Links: []string{}})
	w.AddPage(web.Page{URL: "u:deep", Text: "merger merger merger analysis in depth", Links: nil})
	return w
}

func urls(pages []*web.Page) []string {
	out := make([]string, len(pages))
	for i, p := range pages {
		out[i] = p.URL
	}
	return out
}

func TestCrawlVisitsReachablePages(t *testing.T) {
	w := chainWeb()
	res := Crawl(context.Background(), w, CrawlConfig{Seeds: []string{"u:seed"}})
	if len(res.Pages) != 6 {
		t.Fatalf("visited %v, want all 6", urls(res.Pages))
	}
}

func TestCrawlMaxPages(t *testing.T) {
	w := chainWeb()
	res := Crawl(context.Background(), w, CrawlConfig{Seeds: []string{"u:seed"}, MaxPages: 3})
	if len(res.Pages) != 3 {
		t.Fatalf("got %d pages, want 3", len(res.Pages))
	}
}

func TestCrawlMaxDepth(t *testing.T) {
	w := chainWeb()
	res := Crawl(context.Background(), w, CrawlConfig{Seeds: []string{"u:seed"}, MaxDepth: 1})
	// Depth 0 = seed, depth 1 = biz1, noise1. deep pages unreachable.
	if len(res.Pages) != 3 {
		t.Fatalf("depth-1 crawl got %v", urls(res.Pages))
	}
}

func TestFocusedCrawlPrioritizesTopic(t *testing.T) {
	w := chainWeb()
	res := Crawl(context.Background(), w, CrawlConfig{
		Seeds: []string{"u:seed"},
		Topic: []string{"merger", "acquisition", "deal"},
	})
	// The merger chain should be fetched before the noise chain.
	pos := map[string]int{}
	for i, u := range urls(res.Pages) {
		pos[u] = i
	}
	if pos["u:biz1"] > pos["u:noise2"] {
		t.Fatalf("focused crawl order wrong: %v", urls(res.Pages))
	}
}

func TestFocusedCrawlPrunesIrrelevant(t *testing.T) {
	w := chainWeb()
	res := Crawl(context.Background(), w, CrawlConfig{
		Seeds:        []string{"u:seed"},
		Topic:        []string{"merger", "acquisition", "deal"},
		MinRelevance: 0.3,
	})
	for _, u := range urls(res.Pages) {
		if u == "u:noise2" {
			t.Fatalf("crawl expanded an irrelevant page: %v", urls(res.Pages))
		}
	}
}

func TestCrawlDeduplicatesContent(t *testing.T) {
	w := web.New()
	w.AddPage(web.Page{URL: "u:a", Text: "identical content here", Links: []string{"u:b"}})
	w.AddPage(web.Page{URL: "u:b", Text: "Identical   CONTENT here", Links: nil})
	res := Crawl(context.Background(), w, CrawlConfig{Seeds: []string{"u:a"}})
	if len(res.Pages) != 1 || res.Duplicates != 1 {
		t.Fatalf("dedup failed: pages=%v dups=%d", urls(res.Pages), res.Duplicates)
	}
}

func TestCrawlDeterministic(t *testing.T) {
	docs := corpus.NewGenerator(corpus.Config{Seed: 3, RelevantPerDriver: 10, BackgroundDocs: 30, HardNegativePerDriver: 3}).World()
	w := web.New()
	for _, d := range docs {
		w.AddPage(web.Page{URL: d.URL, Host: d.Host, Title: d.Title, Text: d.Text(), Links: d.Links})
	}
	cfg := CrawlConfig{Seeds: []string{docs[0].URL}, Topic: []string{"merger", "revenue", "ceo"}}
	a := Crawl(context.Background(), w, cfg)
	b := Crawl(context.Background(), w, cfg)
	if fmt.Sprint(urls(a.Pages)) != fmt.Sprint(urls(b.Pages)) {
		t.Fatal("crawl order not deterministic")
	}
}

func TestCrawlBadSeed(t *testing.T) {
	w := chainWeb()
	res := Crawl(context.Background(), w, CrawlConfig{Seeds: []string{"u:missing"}})
	if len(res.Pages) != 0 {
		t.Fatalf("pages from missing seed: %v", urls(res.Pages))
	}
}

func TestCrawlHandlesCycles(t *testing.T) {
	w := web.New()
	w.AddPage(web.Page{URL: "u:a", Text: "alpha page", Links: []string{"u:b", "u:a"}})
	w.AddPage(web.Page{URL: "u:b", Text: "beta page", Links: []string{"u:a", "u:c"}})
	w.AddPage(web.Page{URL: "u:c", Text: "gamma page", Links: []string{"u:b"}})
	res := Crawl(context.Background(), w, CrawlConfig{Seeds: []string{"u:a"}})
	if len(res.Pages) != 3 {
		t.Fatalf("cyclic graph crawl = %v", urls(res.Pages))
	}
}

func TestCrawlBrokenLinks(t *testing.T) {
	w := web.New()
	w.AddPage(web.Page{URL: "u:a", Text: "alpha page", Links: []string{"u:missing", "u:b"}})
	w.AddPage(web.Page{URL: "u:b", Text: "beta page"})
	res := Crawl(context.Background(), w, CrawlConfig{Seeds: []string{"u:a"}})
	if len(res.Pages) != 2 {
		t.Fatalf("broken link crawl = %v", urls(res.Pages))
	}
}

func TestCrawlMultipleSeedsNoDoubleVisit(t *testing.T) {
	w := chainWeb()
	res := Crawl(context.Background(), w, CrawlConfig{Seeds: []string{"u:seed", "u:biz1", "u:seed"}})
	seen := map[string]bool{}
	for _, u := range urls(res.Pages) {
		if seen[u] {
			t.Fatalf("page visited twice: %s", u)
		}
		seen[u] = true
	}
}

func TestCollectMergesAndDedups(t *testing.T) {
	p1 := &web.Page{URL: "u:1", Text: "alpha"}
	p2 := &web.Page{URL: "u:2", Text: "beta"}
	p2b := &web.Page{URL: "u:2", Text: "beta changed"}
	p3 := &web.Page{URL: "u:3", Text: "ALPHA"} // content dup of p1
	got := Collect(
		StaticSource{SourceName: "db", Pages: []*web.Page{p1, p2}},
		StaticSource{SourceName: "crawl", Pages: []*web.Page{p2b, p3}},
	)
	if len(got) != 2 || got[0].URL != "u:1" || got[1].URL != "u:2" {
		t.Fatalf("collect = %v", urls(got))
	}
}

func TestCrawlSourceAdapter(t *testing.T) {
	w := chainWeb()
	res := Crawl(context.Background(), w, CrawlConfig{Seeds: []string{"u:seed"}, MaxPages: 2})
	src := CrawlSource{SourceName: "focused", Result: res}
	if src.Name() != "focused" || len(src.Documents()) != 2 {
		t.Fatalf("adapter broken: %s %d", src.Name(), len(src.Documents()))
	}
}

func TestMonitorDetectsChanges(t *testing.T) {
	m := NewMonitor()
	p := &web.Page{URL: "u:x", Text: "version one"}
	if !m.Observe(p) {
		t.Fatal("first observation must report new")
	}
	if m.Observe(p) {
		t.Fatal("unchanged page reported as changed")
	}
	p2 := &web.Page{URL: "u:x", Text: "version two"}
	if !m.Observe(p2) {
		t.Fatal("changed page not detected")
	}
}

func TestMonitorChangedFilter(t *testing.T) {
	m := NewMonitor()
	pages := []*web.Page{
		{URL: "u:b", Text: "one"},
		{URL: "u:a", Text: "two"},
	}
	first := m.Changed(pages)
	if len(first) != 2 || first[0].URL != "u:a" {
		t.Fatalf("first pass = %v", urls(first))
	}
	second := m.Changed(pages)
	if len(second) != 0 {
		t.Fatalf("second pass = %v", urls(second))
	}
}

func TestCrawlFrontierGaugeZeroedOnReturn(t *testing.T) {
	// A crawl cut off by MaxPages exits with items still queued; the
	// frontier gauge must read 0 afterwards, not the size sampled at
	// the last pop.
	w := chainWeb()
	res := Crawl(context.Background(), w, CrawlConfig{Seeds: []string{"u:seed"}, MaxPages: 2})
	if len(res.Pages) != 2 {
		t.Fatalf("pages = %v", urls(res.Pages))
	}
	if v := mFrontier.Value(); v != 0 {
		t.Fatalf("frontier gauge stale after crawl: %d", v)
	}
}

func TestCrawlRediscoveryRaisesQueuedPriority(t *testing.T) {
	// t is first discovered via the irrelevant parent a (score 0) and
	// rediscovered via the highly relevant parent b (score 1) while
	// still queued: the crawl must fetch t before a's other child c.
	w := web.New()
	w.AddPage(web.Page{URL: "u:seed", Text: "merger news hub",
		Links: []string{"u:a", "u:b"}})
	w.AddPage(web.Page{URL: "u:a", Text: "sports daily roundup",
		Links: []string{"u:c", "u:t"}})
	w.AddPage(web.Page{URL: "u:b", Text: "merger coverage desk",
		Links: []string{"u:t"}})
	w.AddPage(web.Page{URL: "u:t", Text: "the merger target report"})
	w.AddPage(web.Page{URL: "u:c", Text: "boring filler column"})
	res := Crawl(context.Background(), w, CrawlConfig{Seeds: []string{"u:seed"}, Topic: []string{"merger"}})
	pos := map[string]int{}
	for i, u := range urls(res.Pages) {
		pos[u] = i
	}
	if pos["u:t"] > pos["u:c"] {
		t.Fatalf("low-relevance discovery locked in t's priority: %v", urls(res.Pages))
	}
	if len(res.Pages) != 5 {
		t.Fatalf("rediscovery lost pages: %v", urls(res.Pages))
	}
}

func TestCrawlWithInjectedFaultsMatchesFaultFree(t *testing.T) {
	// Acceptance: with 30% seeded transient fetch failures, retrying
	// reaches exactly the fault-free page set, deterministically.
	docs := corpus.NewGenerator(corpus.Config{Seed: 5, RelevantPerDriver: 12, BackgroundDocs: 40, HardNegativePerDriver: 4}).World()
	w := web.New()
	for _, d := range docs {
		w.AddPage(web.Page{URL: d.URL, Host: d.Host, Title: d.Title, Text: d.Text(), Links: d.Links})
	}
	cfg := CrawlConfig{Seeds: []string{docs[0].URL}, Topic: []string{"merger", "revenue", "ceo"}}
	base := Crawl(context.Background(), w, cfg)

	faulty := cfg
	faulty.Fetcher = web.NewFaultFetcher(w, web.FaultConfig{Seed: 9, TransientRate: 0.3, MaxTransient: 3})
	faulty.Retry = RetryConfig{MaxAttempts: 5, Sleep: func(time.Duration) {}}
	retriesBefore := mRetries.Value()
	got := Crawl(context.Background(), w, faulty)
	if fmt.Sprint(urls(got.Pages)) != fmt.Sprint(urls(base.Pages)) {
		t.Fatalf("faulty crawl diverged:\nbase  %v\nfaulty %v", urls(base.Pages), urls(got.Pages))
	}
	if len(got.Failed) != 0 {
		t.Fatalf("transient faults leaked into Failed: %+v", got.Failed)
	}
	if got.Retries == 0 {
		t.Fatal("30%% fault rate produced no retries")
	}
	if mRetries.Value() != retriesBefore+uint64(got.Retries) {
		t.Fatalf("retry metric off: counter moved %d, result says %d",
			mRetries.Value()-retriesBefore, got.Retries)
	}
	// Determinism: a fresh injector with the same seed reproduces the
	// same retry count.
	faulty.Fetcher = web.NewFaultFetcher(w, web.FaultConfig{Seed: 9, TransientRate: 0.3, MaxTransient: 3})
	rerun := Crawl(context.Background(), w, faulty)
	if rerun.Retries != got.Retries {
		t.Fatalf("retries not deterministic: %d vs %d", got.Retries, rerun.Retries)
	}
}

func TestCrawlDegradesGracefullyAndReportsFailures(t *testing.T) {
	// A permanently dead link and an always-failing URL both land in
	// Failed with their reasons while the rest of the crawl proceeds.
	f := newScriptFetcher()
	f.add("u:seed", "business news portal")
	f.add("u:ok", "a merger story")
	f.add("u:flaky", "unreachable forever")
	f.pages["u:seed"].Links = []string{"u:ok", "u:flaky", "u:gone"}
	f.fails["u:flaky"] = -1
	w := web.New()
	res := Crawl(context.Background(), w, CrawlConfig{
		Seeds:   []string{"u:seed"},
		Fetcher: f,
		Retry:   RetryConfig{MaxAttempts: 2, Sleep: func(time.Duration) {}},
	})
	if len(res.Pages) != 2 {
		t.Fatalf("pages = %v", urls(res.Pages))
	}
	reasons := map[string]string{}
	for _, fe := range res.Failed {
		reasons[fe.URL] = fe.Reason
	}
	if reasons["u:flaky"] != FailExhausted || reasons["u:gone"] != FailNotFound {
		t.Fatalf("failure report wrong: %+v", res.Failed)
	}
	if len(res.Failed) != 2 {
		t.Fatalf("failure report wrong: %+v", res.Failed)
	}
}

func BenchmarkCrawl(b *testing.B) {
	docs := corpus.NewGenerator(corpus.Config{Seed: 4, RelevantPerDriver: 30, BackgroundDocs: 100, HardNegativePerDriver: 10}).World()
	w := web.New()
	for _, d := range docs {
		w.AddPage(web.Page{URL: d.URL, Host: d.Host, Title: d.Title, Text: d.Text(), Links: d.Links})
	}
	cfg := CrawlConfig{Seeds: []string{docs[0].URL}, Topic: []string{"merger", "revenue", "ceo"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Crawl(context.Background(), w, cfg)
	}
}

func TestCollectParallelHashingKeepsOrderAndDedup(t *testing.T) {
	// Many pages, including exact-content duplicates across sources —
	// the concurrent fingerprinting must not change which page wins.
	// Content hashing ignores non-word tokens, so vary the word count,
	// not digits, to make each page's content genuinely unique.
	var a, b []*web.Page
	for i := 0; i < 50; i++ {
		text := "a merger story" + strings.Repeat(" indeed", i)
		a = append(a, &web.Page{
			URL:  fmt.Sprintf("http://s1.example.com/%d", i),
			Text: text,
		})
		b = append(b, &web.Page{
			URL:  fmt.Sprintf("http://s2.example.com/%d", i),
			Text: text, // dup content
		})
	}
	got := Collect(StaticSource{SourceName: "a", Pages: a}, StaticSource{SourceName: "b", Pages: b})
	if len(got) != len(a) {
		t.Fatalf("kept %d pages, want %d (source b is all duplicates)", len(got), len(a))
	}
	for i, p := range got {
		if p.URL != a[i].URL {
			t.Fatalf("order changed at %d: %s", i, p.URL)
		}
	}
}
