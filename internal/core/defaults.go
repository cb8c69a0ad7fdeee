package core

import (
	"strings"

	"etap/internal/corpus"
	"etap/internal/htmlx"
	"etap/internal/index"
	"etap/internal/par"
	"etap/internal/rank"
	"etap/internal/train"
	"etap/internal/web"
)

// DefaultDrivers returns the three sales drivers ETAP ships with
// (Section 2), configured with the paper's smart queries and snippet
// filters; revenue growth additionally carries the semantic-orientation
// lexicon of Section 4.
func DefaultDrivers() []SalesDriver {
	specs := train.DefaultSpecs()
	out := make([]SalesDriver, 0, len(corpus.Drivers))
	for _, d := range corpus.Drivers {
		spec := specs[d]
		sd := SalesDriver{
			ID:           string(d),
			Title:        d.Title(),
			SmartQueries: spec.SmartQueries,
			Filter:       spec.Filter,
		}
		if d == corpus.RevenueGrowth {
			sd.Orientation = rank.DefaultRevenueLexicon()
		}
		out = append(out, sd)
	}
	return out
}

// BuildWeb converts generated corpus documents into a frozen web with a
// search index — the standard bridge between the synthetic corpus and the
// pipeline. The in-RAM index uses its defaults.
func BuildWeb(docs []corpus.Document) *web.Web {
	return assembleWeb(index.New(), corpusPages(docs))
}

// BuildWebEngine is BuildWeb honouring the Config's index knobs. With
// IndexDir empty the web is backed by an in-RAM index with Shards and
// CacheSize. With IndexDir set it is backed by the on-disk segment index
// (opened or created there), so documents already committed from a
// previous run are served without re-indexing — only the page table is
// rebuilt from docs. Page order, page content and ranked search results
// are identical for either engine and any shard count. Callers owning a
// persistent web must Close it to flush and release the index.
func BuildWebEngine(docs []corpus.Document, cfg Config) (*web.Web, error) {
	eng, err := openEngine(cfg)
	if err != nil {
		return nil, err
	}
	return assembleWeb(eng, corpusPages(docs)), nil
}

// BuildWebFromHTML exercises the full gathering path a real deployment
// takes: every document is rendered to the HTML a crawler would fetch,
// then the page text, title and links are recovered with internal/htmlx.
// The resulting web is behaviourally equivalent to BuildWeb's (same
// sentences, same links), which TestBuildWebFromHTMLEquivalence asserts.
func BuildWebFromHTML(docs []corpus.Document) *web.Web {
	return assembleWeb(index.New(), htmlPages(docs))
}

// openEngine returns the search engine cfg selects: the persistent
// segment index in IndexDir, or an in-RAM index when IndexDir is empty.
func openEngine(cfg Config) (index.Engine, error) {
	if cfg.IndexDir == "" {
		return index.NewWithOptions(index.Options{Shards: cfg.Shards, CacheSize: cfg.CacheSize}), nil
	}
	return index.OpenSegmentIndex(index.SegmentOptions{
		Dir:         cfg.IndexDir,
		FlushDocs:   cfg.SegmentFlushDocs,
		MergeFactor: cfg.MergeFactor,
		Writers:     cfg.Shards,
		CacheSize:   cfg.CacheSize,
	})
}

// assembleWeb is the one web-assembly path: pages bulk-load into eng
// concurrently (web.AddPages), then the web freezes.
func assembleWeb(eng index.Engine, pages []web.Page) *web.Web {
	w := web.New(web.WithEngine(eng))
	w.AddPages(pages)
	w.Freeze()
	return w
}

// corpusPages converts generated documents to pages directly.
func corpusPages(docs []corpus.Document) []web.Page {
	pages := make([]web.Page, len(docs))
	for i, d := range docs {
		pages[i] = web.Page{
			URL:   d.URL,
			Host:  d.Host,
			Title: d.Title,
			Text:  d.Text(),
			Links: d.Links,
		}
	}
	return pages
}

// htmlPages converts generated documents to pages through their HTML:
// the render runs concurrently in internal/corpus and the
// text/title/link extraction concurrently here.
func htmlPages(docs []corpus.Document) []web.Page {
	rendered := corpus.RenderHTMLAll(docs)
	pages := make([]web.Page, len(docs))
	par.For(0, len(docs), func(i int) {
		html := rendered[i]
		text := htmlx.ExtractText(html)
		// The nav/header/footer blocks are page chrome, not article
		// text; a production gatherer strips known chrome. Here chrome
		// is exactly the first block (nav links) and the last ("Served
		// by ..."), so trim them.
		text = stripChrome(text, docs[i].Title)
		pages[i] = web.Page{
			URL:   docs[i].URL,
			Host:  docs[i].Host,
			Title: htmlx.Title(html),
			Text:  text,
			Links: htmlx.ExtractLinks(html),
		}
	})
	return pages
}

// stripChrome removes the navigation prefix (everything before the
// repeated title heading) and the footer suffix from extracted text.
func stripChrome(text, title string) string {
	if i := strings.Index(text, title); i >= 0 {
		text = text[i+len(title):]
	}
	if i := strings.LastIndex(text, "Served by "); i >= 0 {
		text = text[:i]
	}
	return strings.TrimSpace(text)
}
