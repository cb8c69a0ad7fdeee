package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"etap/internal/core"
	"etap/internal/corpus"
	"etap/internal/index"
)

// searchDigest is the committed SHA-256 of the ranked result lists of
// the fixed query subset (digestQueries) over the full-size search
// world. Ranking is deterministic, so any change to it shows here.
//
//go:embed search.digest
var searchDigest string

type searchSizes struct {
	world    corpus.Config
	restarts int
	warm     float64
	hot      int // repeated phrase and keyword queries each; together they fit the 512-entry cache
}

func (b *bench) searchSizes() searchSizes {
	if b.opts.smoke {
		return searchSizes{world: corpus.Config{Seed: etapdSeed}, restarts: 1, warm: 0.2, hot: 20}
	}
	// About 50,000 pages in the default world's mix.
	return searchSizes{
		world: corpus.Config{Seed: etapdSeed, RelevantPerDriver: 6500, HardNegativePerDriver: 2200,
			BackgroundDocs: 22000, FamousEventDocs: 400},
		restarts: 3, warm: 2, hot: 100,
	}
}

// topK is the result depth the paper fetches per smart query.
const topK = 200

// query is one search-workload operation.
type query struct {
	kind string // phrase, keyword or cooccur
	text string // phrase and keyword queries
	a, b string // cooccur terms
}

// runSearch is the search substrate under data-gathering load: two
// closed-loop callers issue phrase and keyword queries (top 200) and
// PMI-IR co-occurrence lookups against a segment index that was
// bulk-loaded, committed and reopened, as a restarted etapd serves it.
func runSearch(b *bench) error {
	sz := b.searchSizes()
	cfg := daemonConfig{world: sz.world, dir: filepath.Join(b.tmp, "search")}
	// The bulk load etapd's first start performs, committed by closing
	// the web; the daemon measured is a restart over those segments.
	if err := bulkBuild(b, cfg); err != nil {
		return err
	}
	d, err := b.start(cfg)
	if err != nil {
		return err
	}
	defer d.close()
	eng := d.web.Index()

	vocab := searchVocab(d)
	// Operations wrap around after this many; a repeat is by then far
	// outside the 512-entry query cache.
	ops := queryStream(b.opts.seed, vocab, sz.hot, 50_000)

	// Closed loop: each caller takes every maxConns-th operation.
	win := b.startWindow(d, sz.warm)
	t0, warm := win.t0, win.warm
	end := warm + time.Duration(b.opts.seconds*float64(time.Second))
	type result struct {
		lat  float64
		at   time.Duration
		kind string
		urls []string // sampled ranked lists, checked after the window
		op   int
		freq [3]int
	}
	results := make([][]result, maxConns)
	count := make([]int, maxConns) // operations per caller, warm-up included
	var wg sync.WaitGroup
	time.Sleep(time.Until(t0))
	for j := 0; j < maxConns; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := j; ; i += maxConns {
				start := time.Since(t0)
				if start >= end {
					return
				}
				op := ops[i%len(ops)]
				r := result{kind: op.kind, op: i % len(ops)}
				switch op.kind {
				case "cooccur":
					r.freq = [3]int{eng.DocFreq(op.a), eng.DocFreq(op.b), eng.CoNearFreq(op.a, op.b, 10)}
				default:
					pages := d.web.Search(op.text, topK)
					if i%16 == 0 {
						for _, p := range pages {
							r.urls = append(r.urls, p.URL)
						}
					}
				}
				stop := time.Since(t0)
				count[j]++
				if b.hooks != nil {
					b.hooks.record("index."+op.kind, "", "", t0.Add(start), t0.Add(stop))
				}
				if start >= warm {
					r.lat, r.at = ms(stop-start), start
					results[j] = append(results[j], r)
				}
			}
		}(j)
	}
	wg.Wait()
	measured := time.Since(t0) - warm
	stats := b.endWindow(d, win)
	total := 0
	for _, c := range count {
		total += c
	}

	var lat []float64
	var at []time.Duration
	byKind := map[string][]float64{}
	for _, rs := range results {
		for _, r := range rs {
			lat = append(lat, r.lat)
			at = append(at, r.at)
			byKind[r.kind] = append(byKind[r.kind], r.lat)
			b.rep.attempted++
			if msg := checkSearch(eng, ops[r.op], r.urls, r.freq); msg != "" {
				b.rep.fail("%s %q: %s", r.kind, ops[r.op].text+ops[r.op].a, msg)
			}
		}
	}
	digest := resultDigest(eng, digestQueries(vocab))
	b.rep.attempted++
	if !b.opts.smoke && digest != strings.TrimSpace(searchDigest) {
		b.rep.fail("ranked results of the fixed query subset hash to %s, committed %s", digest, strings.TrimSpace(searchDigest))
	}
	b.rep.note("search: digest %s over %d fixed queries, %d documents indexed", digest, len(digestQueries(vocab)), eng.Len())

	b.rep.set("p50_ms", must(quantile(lat, 0.5)), "ms", len(lat))
	b.rep.setP99(lat, at, warm, b.opts.seconds)
	b.rep.set("ops_per_s", float64(len(lat))/measured.Seconds(), "1/s", len(lat))
	b.rep.set("cpu_ms_per_op", ratio(stats.cpu.Seconds()*1000, float64(total)), "ms", total)
	b.rep.timing("query_ms", "ms", lat)
	reportRuntime(b.rep, stats, total)
	if b.opts.trace {
		for _, kind := range []string{"phrase", "keyword", "cooccur"} {
			b.rep.timing("index.search_ms."+kind, "ms", byKind[kind])
		}
		queries := stats.delta("etap_index_queries_total")
		b.rep.set("index.postings_per_query", ratio(stats.delta("etap_index_postings_scanned_total"), queries), "count", int(queries))
		hits, misses := stats.delta("etap_index_cache_hits_total"), stats.delta("etap_index_cache_misses_total")
		b.rep.set("index.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
		b.rep.set("index.flushes", varValue(stats.vars1["etap_index_segment_flushes_total"]), "count", 1)
		b.rep.set("index.merges", varValue(stats.vars1["etap_index_segment_merges_total"]), "count", 1)
		win.tog.reportOverhead(b.rep, lat, at, warm)
	}
	return b.finish(d, cfg, sz.restarts, true)
}

// bulkBuild generates the world and loads it into a fresh segment index
// through the constructor etapd uses, then closes the web, which
// commits every segment.
func bulkBuild(b *bench, cfg daemonConfig) error {
	t := time.Now()
	docs := corpus.NewGenerator(cfg.world).World()
	w, err := core.BuildWebEngine(docs, core.Config{Seed: etapdSeed, IndexDir: filepath.Join(cfg.dir, "index")})
	if err != nil {
		return fmt.Errorf("bulk-loading the index: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("committing the index: %w", err)
	}
	b.rep.set("index.build_s", time.Since(t).Seconds(), "s", 1)
	return nil
}

// checkSearch verifies one operation: a sampled ranked list must come
// back from the engine in non-increasing score order and equal what
// web.Search returned; co-occurrence counts must be consistent.
func checkSearch(eng index.Engine, op query, urls []string, freq [3]int) string {
	if op.kind == "cooccur" {
		if freq[2] < 0 || freq[2] > freq[0] || freq[2] > freq[1] {
			return fmt.Sprintf("df(a)=%d df(b)=%d near(a,b)=%d", freq[0], freq[1], freq[2])
		}
		return ""
	}
	if urls == nil {
		return ""
	}
	hits := eng.Search(op.text, topK)
	if len(hits) != len(urls) {
		return fmt.Sprintf("%d hits from the engine, %d pages from web.Search", len(hits), len(urls))
	}
	for i, h := range hits {
		if h.DocID != urls[i] {
			return fmt.Sprintf("hit %d is %s, web.Search returned %s", i, h.DocID, urls[i])
		}
		if i > 0 && h.Score > hits[i-1].Score {
			return fmt.Sprintf("hit %d scores %g above hit %d", i, h.Score, i-1)
		}
	}
	return ""
}

// resultDigest hashes the ranked top-200 lists of qs (doc IDs and exact
// scores).
func resultDigest(eng index.Engine, qs []string) string {
	h := sha256.New()
	for _, q := range qs {
		for _, hit := range eng.Search(q, topK) {
			fmt.Fprintf(h, "%s\t%s\t%x\n", q, hit.DocID, hit.Score)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// vocab is the material queries are built from: KB company names,
// the drivers' smart queries, and the driver vocabulary — the frequent
// words of the world's trigger sentences plus the KB keywords the
// corpus contains.
type vocab struct {
	companies []string
	smart     []string
	words     []string
}

// stopwords are left out of the driver vocabulary: no one searches
// for them.
var stopwords = map[string]bool{
	"that": true, "this": true, "with": true, "from": true, "have": true, "will": true,
	"their": true, "which": true, "into": true, "after": true, "over": true, "said": true,
	"were": true, "been": true, "more": true, "than": true, "also": true, "about": true,
	"last": true, "year": true, "would": true, "they": true, "when": true, "while": true,
}

func searchVocab(d *daemon) vocab {
	var v vocab
	for _, c := range d.kb.Companies() {
		v.companies = append(v.companies, c.Name)
	}
	for _, drv := range core.DefaultDrivers() {
		v.smart = append(v.smart, drv.SmartQueries...)
	}
	counts := map[string]int{}
	for _, doc := range d.docs {
		for _, s := range doc.Sentences {
			if s.Driver == "" {
				continue
			}
			for _, f := range strings.Fields(strings.ToLower(s.Text)) {
				w := strings.Trim(f, ".,;:'\"()")
				if len(w) >= 4 && !stopwords[w] && strings.Trim(w, "abcdefghijklmnopqrstuvwxyz") == "" {
					counts[w]++
				}
			}
		}
	}
	eng := d.web.Index()
	for _, c := range d.kb.Companies() {
		for _, k := range c.Keywords {
			if counts[k] < 20 && eng.DocFreq(k) > 0 {
				counts[k] = 20
			}
		}
	}
	for w, n := range counts {
		if n >= 20 {
			v.words = append(v.words, w)
		}
	}
	sort.Strings(v.companies)
	sort.Strings(v.smart)
	sort.Strings(v.words)
	return v
}

// digestQueries is the fixed, seed-independent subset whose ranked
// results are pinned by the committed digest.
func digestQueries(v vocab) []string {
	qs := append([]string(nil), v.smart...)
	for i := 0; i < 20; i++ {
		c := v.companies[i*len(v.companies)/20]
		w := v.words[i*len(v.words)/20]
		qs = append(qs, fmt.Sprintf("%q %s", c, w), w+" "+v.words[(i*7+3)%len(v.words)])
	}
	return qs
}

// queryBlock is the operation mix: every ten consecutive operations
// are four phrase queries, four keyword queries and two PMI-IR
// co-occurrence lookups, one phrase and one keyword query drawn from a
// hot set of repeated queries that fits the query cache — 20% repeats,
// the rest fresh — in a seeded order, so the mix does not drift with
// the seed.
var queryBlock = []struct {
	kind string
	hot  bool
}{
	{"phrase", true}, {"phrase", false}, {"phrase", false}, {"phrase", false},
	{"keyword", true}, {"keyword", false}, {"keyword", false}, {"keyword", false},
	{"cooccur", false}, {"cooccur", false},
}

// queryStream builds the operation sequence (see queryBlock): phrase
// queries are a quoted KB company plus driver words, keyword queries
// driver words or a smart query plus a word, co-occurrence lookups a
// company token against a driver word.
func queryStream(seed int64, v vocab, hot, n int) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x5ea4c4))
	word := func() string { return v.words[rng.Intn(len(v.words))] }
	fresh := func(kind string) query {
		switch kind {
		case "phrase":
			c := v.companies[rng.Intn(len(v.companies))]
			if rng.Intn(2) == 0 {
				return query{kind: kind, text: fmt.Sprintf("%q %s", c, word())}
			}
			return query{kind: kind, text: fmt.Sprintf("%q %s %s", c, word(), word())}
		case "keyword":
			if rng.Intn(4) == 0 {
				return query{kind: kind, text: v.smart[rng.Intn(len(v.smart))] + " " + word()}
			}
			return query{kind: kind, text: word() + " " + word()}
		default:
			c := strings.Fields(strings.ToLower(v.companies[rng.Intn(len(v.companies))]))[0]
			return query{kind: kind, a: c, b: word()}
		}
	}
	hotSet := map[string][]query{}
	for i := 0; i < hot; i++ {
		for _, kind := range []string{"phrase", "keyword"} {
			hotSet[kind] = append(hotSet[kind], fresh(kind))
		}
	}
	block := append(queryBlock[:0:0], queryBlock...)
	ops := make([]query, 0, n)
	for len(ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, slot := range block {
			if slot.hot {
				ops = append(ops, hotSet[slot.kind][rng.Intn(hot)])
			} else {
				ops = append(ops, fresh(slot.kind))
			}
		}
	}
	return ops
}
