package train

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"etap/internal/annotate"
	"etap/internal/corpus"
	"etap/internal/ner"
	"etap/internal/obs"
	"etap/internal/par"
	"etap/internal/snippet"
	"etap/internal/textproc"
	"etap/internal/web"
)

// Training-data generation reports into the process-wide registry so a
// live etapd shows how much raw material each AddDriver consumed.
// Unlike the extraction hot path, these counters are not scoped by
// core.Config.Metrics/DisableMetrics — they always use obs.Default.
var (
	mQueries = obs.Default.Counter("etap_train_queries_total",
		"Smart queries issued during noisy-positive generation.")
	mPages = obs.Default.Counter("etap_train_pages_fetched_total",
		"Pages fetched by smart queries during noisy-positive generation.")
	mSnippetsSeen = obs.Default.Counter("etap_train_snippets_seen_total",
		"Snippets considered during noisy-positive generation.")
	mSnippetsKept = obs.Default.Counter("etap_train_snippets_kept_total",
		"Snippets surviving the entity filter and de-duplication.")
	mNegatives = obs.Default.Counter("etap_train_negatives_sampled_total",
		"Random negative snippets sampled from the web.")
)

// Spec describes how to generate noisy positive data for one sales
// driver: the smart queries and the snippet-level entity filter.
type Spec struct {
	Driver       corpus.Driver
	SmartQueries []string
	Filter       Filter
}

// DefaultSpecs returns the specs the paper describes for the three
// built-in drivers: five smart queries each, with the quoted filters of
// Sections 3.3.1 and 5.1.
func DefaultSpecs() map[corpus.Driver]Spec {
	maQueries := make([]string, 0, 5)
	for _, p := range corpus.FamousPairs() {
		maQueries = append(maQueries, p[0]+" "+p[1]) // "IBM Daksh" etc.
	}
	return map[corpus.Driver]Spec{
		corpus.MergersAcquisitions: {
			Driver:       corpus.MergersAcquisitions,
			SmartQueries: maQueries,
			// "Discard all snippets not containing two ORG annotations."
			Filter: MinCount(ner.ORG, 2),
		},
		corpus.ChangeInManagement: {
			Driver: corpus.ChangeInManagement,
			SmartQueries: []string{
				`"new ceo"`, `"new cto"`, `"new president"`,
				`"new managing director"`, `"was appointed"`,
			},
			// "Designation AND (Person OR Organization)".
			Filter: And(Has(ner.DESIG), Or(Has(ner.PRSN), Has(ner.ORG))),
		},
		corpus.RevenueGrowth: {
			Driver: corpus.RevenueGrowth,
			SmartQueries: []string{
				`"revenue growth"`, `"quarterly revenue"`, `"record revenue"`,
				`"earnings grew"`, `"revenue fell"`,
			},
			// "Organization AND (Currency OR percent figure)".
			Filter: And(Has(ner.ORG), Or(Has(ner.CURRENCY), Has(ner.PRCNT))),
		},
	}
}

// Config sizes the generation process.
type Config struct {
	// TopK documents fetched per smart query; 0 means 200 ("We gathered
	// the top 200 documents returned by the search engine").
	TopK int
	// SnippetN is the sentences-per-snippet window; 0 means 3.
	SnippetN int
}

func (c Config) withDefaults() Config {
	if c.TopK == 0 {
		c.TopK = 200
	}
	if c.SnippetN == 0 {
		c.SnippetN = snippet.DefaultN
	}
	return c
}

// Snippet is a generated training snippet with provenance.
type Snippet struct {
	Text  string
	URL   string
	Units []annotate.Unit // annotation, reused by feature extraction
}

// Stats reports what the generation step did.
type Stats struct {
	QueriesRun       int
	PagesFetched     int
	SnippetsSeen     int
	SnippetsFiltered int // rejected by the entity filter
	SnippetsKept     int
	Duplicates       int
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("queries=%d pages=%d snippets=%d kept=%d filtered=%d dups=%d",
		s.QueriesRun, s.PagesFetched, s.SnippetsSeen, s.SnippetsKept,
		s.SnippetsFiltered, s.Duplicates)
}

// NoisyPositives runs the two-step procedure of Section 3.3.1: smart
// queries fetch top-k pages, pages are split into snippets, snippets are
// annotated, and the entity filter distills the noisy positive set.
// Duplicate snippet texts (the same page reached by several queries) are
// kept once. Pages are split and annotated on every core; the result
// is the same for any GOMAXPROCS.
func NoisyPositives(w *web.Web, ann *annotate.Annotator, spec Spec, cfg Config) ([]Snippet, Stats) {
	cfg = cfg.withDefaults()
	gen := snippet.Generator{N: cfg.SnippetN}

	var stats Stats
	var pages []*web.Page
	seenPage := map[string]bool{}
	for _, q := range spec.SmartQueries {
		stats.QueriesRun++
		for _, page := range w.Search(q, cfg.TopK) {
			if seenPage[page.URL] {
				continue
			}
			seenPage[page.URL] = true
			pages = append(pages, page)
		}
	}
	stats.PagesFetched = len(pages)

	perPage := make([][]Snippet, len(pages))
	par.For(0, len(pages), func(i int) {
		page := pages[i]
		buf := splitPool.Get().(*splitBuf)
		buf.snips = gen.AppendSplit(buf.snips[:0], &buf.sents, page.URL, page.Text)
		annotated := make([]Snippet, len(buf.snips))
		for k, sn := range buf.snips {
			annotated[k] = Snippet{Text: sn.Text, URL: page.URL, Units: ann.Annotate(sn.Text)}
		}
		perPage[i] = annotated
		buf.release()
	})

	// Filter and de-duplicate in query, rank and snippet order, so the
	// first page to carry a text keeps it.
	var out []Snippet
	seenText := map[string]bool{}
	for _, snips := range perPage {
		for _, sn := range snips {
			stats.SnippetsSeen++
			if spec.Filter != nil && !spec.Filter(sn.Units) {
				stats.SnippetsFiltered++
				continue
			}
			key := strings.ToLower(sn.Text)
			if seenText[key] {
				stats.Duplicates++
				continue
			}
			seenText[key] = true
			out = append(out, sn)
		}
	}
	stats.SnippetsKept = len(out)
	mQueries.Add(uint64(stats.QueriesRun))
	mPages.Add(uint64(stats.PagesFetched))
	mSnippetsSeen.Add(uint64(stats.SnippetsSeen))
	mSnippetsKept.Add(uint64(stats.SnippetsKept))
	return out, stats
}

// Negatives draws n random snippets from the whole web — the negative
// class ("we construct the negative class by randomly picking a large
// number of snippets from the Web"). The same set can be reused across
// drivers. Sampling is deterministic in seed; the sampled snippets are
// annotated on every core afterwards.
func Negatives(w *web.Web, ann *annotate.Annotator, n int, snippetN int, seed int64) []Snippet {
	if snippetN <= 0 {
		snippetN = snippet.DefaultN
	}
	gen := snippet.Generator{N: snippetN}
	urls := w.URLs()
	if len(urls) == 0 || n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []Snippet
	seen := map[string]bool{}
	var buf splitBuf
	// Bound the attempts: a tiny web may not have n distinct snippets.
	for attempts := 0; len(out) < n && attempts < n*20; attempts++ {
		page, _ := w.Page(urls[rng.Intn(len(urls))])
		buf.snips = gen.AppendSplit(buf.snips[:0], &buf.sents, page.URL, page.Text)
		if len(buf.snips) == 0 {
			continue
		}
		sn := buf.snips[rng.Intn(len(buf.snips))]
		key := strings.ToLower(sn.Text)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Snippet{Text: sn.Text, URL: page.URL})
	}
	par.For(0, len(out), func(i int) { out[i].Units = ann.Annotate(out[i].Text) })
	mNegatives.Add(uint64(len(out)))
	return out
}

// splitBuf is reusable memory for splitting pages into snippets.
type splitBuf struct {
	sents []textproc.Sentence
	snips []snippet.Snippet
}

var splitPool = sync.Pool{New: func() any { return new(splitBuf) }}

// release clears b, whose snippets alias a page, and returns it to the
// pool.
func (b *splitBuf) release() {
	clear(b.sents)
	clear(b.snips)
	b.sents, b.snips = b.sents[:0], b.snips[:0]
	splitPool.Put(b)
}

// Oversample repeats each snippet k times (the paper's pure-positive
// oversampling "by a factor of 3").
func Oversample(snips []Snippet, k int) []Snippet {
	if k <= 1 {
		return snips
	}
	out := make([]Snippet, 0, len(snips)*k)
	for i := 0; i < k; i++ {
		out = append(out, snips...)
	}
	return out
}
