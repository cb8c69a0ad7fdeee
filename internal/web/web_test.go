package web

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"etap/internal/index"
)

func smallWeb() *Web {
	w := New()
	w.AddPage(Page{URL: "http://a.example.com/1", Title: "New CEO at Acme",
		Text: "Acme named a new CEO on Friday.", Links: []string{"http://a.example.com/2"}})
	w.AddPage(Page{URL: "http://a.example.com/2", Title: "Weather",
		Text: "The weather stayed pleasant."})
	w.AddPage(Page{URL: "http://b.example.net/x", Title: "Merger news",
		Text: "IBM acquired Daksh in a landmark deal."})
	return w
}

func TestAddAndLookup(t *testing.T) {
	w := smallWeb()
	if w.Len() != 3 {
		t.Fatalf("len = %d", w.Len())
	}
	p, ok := w.Page("http://a.example.com/1")
	if !ok || p.Title != "New CEO at Acme" {
		t.Fatalf("lookup failed: %+v", p)
	}
	if _, ok := w.Page("http://nowhere/"); ok {
		t.Fatal("phantom page")
	}
}

func TestHostDerivedFromURL(t *testing.T) {
	w := smallWeb()
	p, _ := w.Page("http://b.example.net/x")
	if p.Host != "b.example.net" {
		t.Fatalf("host = %q", p.Host)
	}
}

func TestSearchReturnsPages(t *testing.T) {
	w := smallWeb()
	hits := w.Search(`"new ceo"`, 10)
	if len(hits) != 1 || hits[0].URL != "http://a.example.com/1" {
		t.Fatalf("hits = %+v", hits)
	}
}

func TestSearchTitleIsIndexed(t *testing.T) {
	w := smallWeb()
	hits := w.Search("merger", 10)
	if len(hits) != 1 || hits[0].URL != "http://b.example.net/x" {
		t.Fatalf("title terms not indexed: %+v", hits)
	}
}

func TestURLsInsertionOrder(t *testing.T) {
	w := smallWeb()
	urls := w.URLs()
	if urls[0] != "http://a.example.com/1" || urls[2] != "http://b.example.net/x" {
		t.Fatalf("order = %v", urls)
	}
}

func TestHosts(t *testing.T) {
	w := smallWeb()
	hosts := w.Hosts()
	if len(hosts) != 2 || hosts[0] != "a.example.com" || hosts[1] != "b.example.net" {
		t.Fatalf("hosts = %v", hosts)
	}
}

func TestSearchWithSnippets(t *testing.T) {
	w := New()
	w.AddPage(Page{URL: "u:long", Text: "One filler sentence sits here first. " +
		"Another filler line follows with more words to push the match away. " +
		"Acme named a new CEO on Friday after a search. Trailing text continues afterwards for a while longer."})
	res := w.SearchWithSnippets(`"new ceo"`, 5)
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	sn := res[0].Snippet
	if !strings.Contains(sn, "new CEO") {
		t.Fatalf("snippet misses the match: %q", sn)
	}
	if !strings.HasPrefix(sn, "... ") || !strings.HasSuffix(sn, " ...") {
		t.Errorf("snippet not elided: %q", sn)
	}
	if len(strings.Fields(sn)) > 24 {
		t.Errorf("snippet too long: %q", sn)
	}
}

func TestSearchWithSnippetsFallback(t *testing.T) {
	w := New()
	// Query term appears in title only; snippet falls back to page head.
	w.AddPage(Page{URL: "u:t", Title: "merger special", Text: "Body text without the word."})
	res := w.SearchWithSnippets("merger", 5)
	if len(res) != 1 || res[0].Snippet == "" {
		t.Fatalf("fallback failed: %+v", res)
	}
}

func TestDuplicateURLPanics(t *testing.T) {
	w := smallWeb()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate URL")
		}
	}()
	w.AddPage(Page{URL: "http://a.example.com/1", Text: "again"})
}

func TestAddAfterFreezePanics(t *testing.T) {
	w := smallWeb()
	w.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on add after freeze")
		}
	}()
	w.AddPage(Page{URL: "http://c.example.org/", Text: "late"})
}

func TestEmptyURLPanics(t *testing.T) {
	w := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty URL")
		}
	}()
	w.AddPage(Page{Text: "no url"})
}

func TestAddPagesMatchesAddPage(t *testing.T) {
	pages := make([]Page, 60)
	for i := range pages {
		pages[i] = Page{
			URL:   fmt.Sprintf("http://bulk.example.com/%d", i),
			Title: fmt.Sprintf("Story %d", i),
			Text:  fmt.Sprintf("Company %d announced a merger and a new ceo on day %d", i%7, i),
			Links: []string{"http://bulk.example.com/0"},
		}
	}
	seq := New()
	for _, p := range pages {
		seq.AddPage(p)
	}
	seq.Freeze()

	bulk := New()
	bulk.AddPages(pages)
	bulk.Freeze()

	if seq.Len() != bulk.Len() {
		t.Fatalf("Len: %d vs %d", seq.Len(), bulk.Len())
	}
	if fmt.Sprint(seq.URLs()) != fmt.Sprint(bulk.URLs()) {
		t.Fatal("AddPages changed page order")
	}
	pageURLs := func(ps []*Page) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.URL
		}
		return out
	}
	for _, q := range []string{`"new ceo"`, "merger", "company 3"} {
		a, b := pageURLs(seq.Search(q, 0)), pageURLs(bulk.Search(q, 0))
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("query %q: sequential %v vs bulk %v", q, a, b)
		}
	}
}

func TestAddPagesDuplicatePanics(t *testing.T) {
	w := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate URL in AddPages")
		}
	}()
	w.AddPages([]Page{
		{URL: "http://dup.example.com/", Text: "one"},
		{URL: "http://dup.example.com/", Text: "two"},
	})
}

// TestWithIndexOptions checks that a memory-only index opened with
// non-default options and handed over through WithEngine backs the web.
func TestWithIndexOptions(t *testing.T) {
	eng, err := index.OpenSegmentIndex(index.SegmentOptions{Writers: 3, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	w := New(WithEngine(eng))
	w.AddPage(Page{URL: "http://x.example.com/", Text: "merger news"})
	if got := w.Index().IndexStats().Shards; got != 3 {
		t.Fatalf("IndexStats().Shards = %d, want 3", got)
	}
	if hits := w.Search("merger", 0); len(hits) != 1 {
		t.Fatalf("search on a three-lane web: %v", hits)
	}
}

// TestWithEngineSegmentBacked drives the full persistent lifecycle
// through the web layer: a durable segment-backed web indexes, searches
// and ingests like a memory-only one; after Close a new web over the reopened
// engine repairs its page table from the same pages without
// re-indexing (no duplicate-add panic, Ingest reports
// ErrDuplicatePage), and searches serve from the recovered segments.
func TestWithEngineSegmentBacked(t *testing.T) {
	dir := t.TempDir()
	open := func() *index.SegmentIndex {
		eng, err := index.OpenSegmentIndex(index.SegmentOptions{Dir: dir, FlushDocs: 2, Writers: 2})
		if err != nil {
			t.Fatalf("open segment index: %v", err)
		}
		return eng
	}

	w := New(WithEngine(open()))
	pages := []Page{
		{URL: "http://a.example.com/1", Title: "New CEO at Acme", Text: "Acme named a new CEO on Friday."},
		{URL: "http://a.example.com/2", Title: "Weather", Text: "The weather stayed pleasant."},
		{URL: "http://b.example.net/x", Title: "Merger news", Text: "IBM acquired Daksh in a landmark deal."},
	}
	w.AddPages(pages)
	w.Freeze()
	if err := w.Ingest(Page{URL: "http://c.example.org/s", Text: "streamed acquisition update"}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if hits := w.Search("acquisition", 0); len(hits) != 1 || hits[0].URL != "http://c.example.org/s" {
		t.Fatalf("pre-close search: %v", hits)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Restart: the engine recovers the four documents from the manifest;
	// the caller rebuilds the page table over it.
	eng := open()
	if eng.Len() != 4 {
		t.Fatalf("reopened engine holds %d docs, want 4", eng.Len())
	}
	w2 := New(WithEngine(eng))
	w2.AddPages(pages) // must repair the table without re-indexing
	w2.Freeze()
	err := w2.Ingest(Page{URL: "http://c.example.org/s", Text: "streamed acquisition update"})
	if !errors.Is(err, ErrDuplicatePage) {
		t.Fatalf("re-ingest of recovered doc: %v", err)
	}
	if w2.Len() != 4 {
		t.Fatalf("repaired table holds %d pages, want 4", w2.Len())
	}
	if p, ok := w2.Page("http://c.example.org/s"); !ok || p.Text != "streamed acquisition update" {
		t.Fatalf("repaired page lookup: %+v %v", p, ok)
	}
	if hits := w2.Search(`"new ceo"`, 10); len(hits) != 1 || hits[0].URL != "http://a.example.com/1" {
		t.Fatalf("post-restart search: %v", hits)
	}
	if st := w2.Index().IndexStats(); st.Segments == 0 {
		t.Fatalf("expected committed segments after restart, stats = %+v", st)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("close reopened: %v", err)
	}
}

// TestIngestAfterFreeze covers the streaming path: a frozen web still
// accepts incremental pages, which become visible to lookups and
// searchable, while duplicates report ErrDuplicatePage instead of
// panicking.
func TestIngestAfterFreeze(t *testing.T) {
	w := New()
	w.AddPage(Page{URL: "http://a.example.com/1", Text: "seed page"})
	w.Freeze()

	if err := w.Ingest(Page{URL: "http://a.example.com/2", Text: "fresh merger announcement"}); err != nil {
		t.Fatalf("Ingest after Freeze: %v", err)
	}
	if w.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", w.Len())
	}
	if p, ok := w.Page("http://a.example.com/2"); !ok || p.Host != "a.example.com" {
		t.Fatalf("ingested page lookup: %v %v", p, ok)
	}
	if hits := w.Search("merger", 0); len(hits) != 1 || hits[0].URL != "http://a.example.com/2" {
		t.Fatalf("ingested page not searchable: %v", hits)
	}

	err := w.Ingest(Page{URL: "http://a.example.com/2", Text: "fresh merger announcement"})
	if !errors.Is(err, ErrDuplicatePage) {
		t.Fatalf("duplicate ingest: %v", err)
	}
	if w.Len() != 2 {
		t.Fatalf("duplicate ingest changed Len to %d", w.Len())
	}
	if err := w.Ingest(Page{Text: "no url"}); err == nil {
		t.Fatal("ingest without URL accepted")
	}
}

// TestIngestConcurrentWithReaders drives Ingest from several
// goroutines while readers hammer Page/Search/URLs — the -race guard
// for the streaming web.
func TestIngestConcurrentWithReaders(t *testing.T) {
	w := New()
	w.AddPage(Page{URL: "http://c.example.com/seed", Text: "seed acquisition story"})
	w.Freeze()

	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w.Page("http://c.example.com/seed")
				w.Search("acquisition", 5)
				w.URLs()
				w.Len()
			}
		}()
	}
	var iwg sync.WaitGroup
	for g := 0; g < writers; g++ {
		iwg.Add(1)
		go func(g int) {
			defer iwg.Done()
			for i := 0; i < perWriter; i++ {
				url := fmt.Sprintf("http://c.example.com/%d-%d", g, i)
				if err := w.Ingest(Page{URL: url, Text: "acquisition update"}); err != nil {
					t.Errorf("Ingest %s: %v", url, err)
				}
			}
		}(g)
	}
	iwg.Wait()
	close(stop)
	wg.Wait()
	if got := w.Len(); got != 1+writers*perWriter {
		t.Fatalf("Len() = %d, want %d", got, 1+writers*perWriter)
	}
	if hits := w.Search("acquisition", 0); len(hits) != 1+writers*perWriter {
		t.Fatalf("search sees %d pages", len(hits))
	}
}
