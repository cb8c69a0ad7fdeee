// Package web models the synthetic Web that replaces the live 2005 Web:
// a page store keyed by URL, a hyperlink graph, and a search-engine view
// (backed by internal/index) that answers the smart queries of Section
// 3.3.1 the way the paper used Google — top-k ranked pages.
package web

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"etap/internal/index"
	"etap/internal/textproc"
)

// Page is one web page.
type Page struct {
	URL   string
	Host  string
	Title string
	Text  string
	Links []string
}

// Web is a page store with a search index. The build phase (AddPage,
// AddPages, Freeze) is single-owner; after Freeze the web is immutable
// through the build API but still accepts incremental additions through
// Ingest — the streaming path new documents arrive on. All readers and
// Ingest are safe for concurrent use.
type Web struct {
	mu     sync.RWMutex
	pages  map[string]*Page
	order  []string // insertion order, for deterministic iteration
	ix     index.Engine
	frozen bool
}

// Option configures a Web at construction time.
type Option func(*webOptions)

type webOptions struct {
	engine index.Engine
}

// WithEngine backs the web with a caller-supplied search engine — an
// index.SegmentIndex opened with non-default options or over an index
// directory — instead of a fresh default memory-only one. A reopened
// engine may already hold documents; the build and ingest paths then
// repair the page table without re-indexing (ranked results are
// identical either way).
func WithEngine(e index.Engine) Option {
	return func(wo *webOptions) { wo.engine = e }
}

// New returns an empty Web. With no options the search index is a
// memory-only index.SegmentIndex with its defaults (GOMAXPROCS writer
// lanes, DefaultCacheSize query cache).
func New(opts ...Option) *Web {
	var wo webOptions
	for _, o := range opts {
		o(&wo)
	}
	ix := wo.engine
	if ix == nil {
		si, err := index.OpenSegmentIndex(index.SegmentOptions{})
		if err != nil {
			panic("web: a memory-only index does no I/O, yet opening it failed: " + err.Error())
		}
		ix = si
	}
	return &Web{pages: make(map[string]*Page), ix: ix}
}

// AddPage stores and indexes a page. Pages must have unique URLs; adding
// after Freeze or re-adding a URL panics. Use Ingest for post-freeze
// additions.
func (w *Web) AddPage(p Page) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.frozen {
		panic("web: AddPage after Freeze")
	}
	w.store(p)
	w.indexPage(&p)
}

// indexPage indexes one stored page, skipping documents a reopened
// persistent engine already holds — rebuilding the page table over a
// recovered index must not re-index (and must not trip the engine's
// duplicate panic).
func (w *Web) indexPage(p *Page) {
	if w.ix.Has(p.URL) {
		return
	}
	w.ix.Add(p.URL, p.Title, p.Text)
}

// store validates and records a page in the page table without
// indexing it. Callers hold the write lock.
func (w *Web) store(p Page) *Page {
	if p.URL == "" {
		panic("web: page without URL")
	}
	if _, dup := w.pages[p.URL]; dup {
		panic("web: duplicate URL " + p.URL)
	}
	if p.Host == "" {
		p.Host = HostOf(p.URL)
	}
	cp := p
	w.pages[p.URL] = &cp
	w.order = append(w.order, p.URL)
	return &cp
}

// AddPages bulk-loads pages: page-store bookkeeping (ordering,
// duplicate detection) stays sequential and deterministic, and the
// index loads the pages in one Engine.AddDocs call, which tokenizes on
// every core and appends each writer lane's pages in page order.
// Behaviour is identical to calling AddPage for each page in order;
// only the load parallelizes.
func (w *Web) AddPages(pages []Page) {
	// Sequential phase: validate and store so order and duplicate
	// detection don't depend on scheduling.
	w.mu.Lock()
	if w.frozen {
		w.mu.Unlock()
		panic("web: AddPages after Freeze")
	}
	stored := make([]*Page, 0, len(pages))
	for _, p := range pages {
		stored = append(stored, w.store(p))
	}
	w.mu.Unlock()
	// The index is internally synchronized, so no web lock is held
	// while it loads. Documents a reopened engine already holds are
	// skipped there, in their lanes.
	docs := make([]index.Doc, len(stored))
	parts := make([]string, 2*len(stored))
	for i, p := range stored {
		parts[2*i], parts[2*i+1] = p.Title, p.Text
		docs[i] = index.Doc{ID: p.URL, Parts: parts[2*i : 2*i+2 : 2*i+2]}
	}
	w.ix.AddDocs(docs)
}

// ErrDuplicatePage reports an Ingest of a URL the web already holds —
// the signal the streaming path uses to treat re-ingestion as a no-op
// instead of double-indexing.
var ErrDuplicatePage = errors.New("web: page already present")

// Ingest adds one page after the build phase — the incremental path
// streaming ingestion uses. Unlike AddPage it is safe to call
// concurrently with readers and with other Ingests, works after
// Freeze, and reports a duplicate URL as ErrDuplicatePage instead of
// panicking (re-ingestion must be idempotent, not fatal). The page is
// visible to Page/URLs and searchable once Ingest returns.
func (w *Web) Ingest(p Page) error {
	if p.URL == "" {
		return errors.New("web: page without URL")
	}
	w.mu.Lock()
	if _, dup := w.pages[p.URL]; dup {
		w.mu.Unlock()
		return fmt.Errorf("%s: %w", p.URL, ErrDuplicatePage)
	}
	if p.Host == "" {
		p.Host = HostOf(p.URL)
	}
	cp := p
	w.pages[p.URL] = &cp
	w.order = append(w.order, p.URL)
	already := w.ix.Has(p.URL)
	w.mu.Unlock()
	if already {
		// A reopened persistent engine recovered this document before
		// the page table knew it: keep the just-stored page (repairing
		// the table) but skip re-indexing, and report the duplicate so
		// streaming callers treat the re-ingestion as a no-op.
		return fmt.Errorf("%s: %w", p.URL, ErrDuplicatePage)
	}
	// The index is internally synchronized; holding the web lock
	// through tokenization would serialize concurrent ingests. The
	// page table already holds the URL, so a racing duplicate Ingest
	// fails above rather than double-indexing.
	w.ix.Add(p.URL, p.Title, p.Text)
	return nil
}

// Freeze marks the web immutable through the build API (AddPage,
// AddPages); searches, lookups, and streaming Ingest remain available.
func (w *Web) Freeze() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.frozen = true
}

// Len returns the number of pages.
func (w *Web) Len() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.order)
}

// Page returns the page at url.
func (w *Web) Page(url string) (*Page, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	p, ok := w.pages[url]
	return p, ok
}

// URLs returns all page URLs in insertion order.
func (w *Web) URLs() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]string(nil), w.order...)
}

// Search runs a search-engine query and returns the top-k pages, like
// "we gathered the top 200 documents returned by the search engine ...
// for each query".
//
//etaplint:ignore context-plumbing -- purely in-memory lookup over the web: no I/O to cancel
func (w *Web) Search(query string, k int) []*Page {
	hits := w.ix.Search(query, k)
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]*Page, 0, len(hits))
	for _, h := range hits {
		if p, ok := w.pages[h.DocID]; ok {
			// A persistent engine can briefly know documents the page
			// table does not (recovered index, table still rebuilding);
			// those hits are dropped rather than returned as nils.
			out = append(out, p)
		}
	}
	return out
}

// Index exposes the underlying search engine for co-occurrence
// statistics (PMI-IR lexicon induction) and operational stats.
func (w *Web) Index() index.Engine { return w.ix }

// Close releases the underlying search engine when it holds external
// resources (a durable segment index flushes its memtables and closes
// its files); a memory-only index holds none, so its web returns nil
// and leaks nothing if never closed. The web must not be used after
// Close.
func (w *Web) Close() error {
	if c, ok := w.ix.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Result is one search hit with its result snippet — the few words
// around the best query match, the way the paper's Figure 5 screenshot
// shows search-engine results.
type Result struct {
	Page    *Page
	Snippet string
}

// SearchWithSnippets is Search plus a contextual snippet per hit: the
// window of the page text around the first query-term match, trimmed to
// word boundaries.
//
//etaplint:ignore context-plumbing -- purely in-memory lookup over the web: no I/O to cancel
func (w *Web) SearchWithSnippets(query string, k int) []Result {
	pages := w.Search(query, k)
	q := index.ParseQuery(query)
	var terms []string
	terms = append(terms, q.Terms...)
	for _, p := range q.Phrases {
		terms = append(terms, p...)
	}
	out := make([]Result, len(pages))
	for i, p := range pages {
		out[i] = Result{Page: p, Snippet: resultSnippet(p.Text, terms)}
	}
	return out
}

// resultSnippet extracts ~20 words around the first occurrence of any
// query term (stem-compared); falls back to the page head.
func resultSnippet(text string, queryTerms []string) string {
	const window = 10
	stems := map[string]bool{}
	for _, t := range queryTerms {
		stems[t] = true
	}
	words := strings.Fields(text)
	hit := -1
	for i, w := range words {
		lw := textproc.Stem(strings.Trim(w, `.,;:!?"'()`))
		if stems[lw] {
			hit = i
			break
		}
	}
	if hit < 0 {
		hit = 0
	}
	lo := hit - window
	if lo < 0 {
		lo = 0
	}
	hi := hit + window
	if hi > len(words) {
		hi = len(words)
	}
	snippet := strings.Join(words[lo:hi], " ")
	if lo > 0 {
		snippet = "... " + snippet
	}
	if hi < len(words) {
		snippet += " ..."
	}
	return snippet
}

// Hosts returns the distinct hosts, sorted.
func (w *Web) Hosts() []string {
	w.mu.RLock()
	set := map[string]bool{}
	for _, u := range w.order {
		set[w.pages[u].Host] = true
	}
	w.mu.RUnlock()
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// HostOf extracts the host portion of a URL ("http://host/x" →
// "host"); URLs without a scheme or path separator are their own host.
func HostOf(url string) string {
	s := url
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return s
}

// String summarizes the web for logs.
func (w *Web) String() string {
	return fmt.Sprintf("web{pages: %d, hosts: %d}", w.Len(), len(w.Hosts()))
}
