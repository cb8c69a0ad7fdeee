// Package index implements the sharded inverted index and ranking that
// serve as ETAP's search engine substrate. The paper's training-data
// generation queries Google with "smart queries" like "new ceo" or "IBM
// Daksh" (Section 3.3.1); this index provides the same capability over
// the synthetic web: positional postings, BM25 ranking, quoted-phrase
// and conjunctive queries.
//
// # Sharding
//
// The index is split into N shards (Options.Shards, default
// GOMAXPROCS). A document is routed to a shard by a hash of its ID and
// lives there entirely, so matching and scoring are shard-local;
// corpus-wide statistics (document count, average length, per-term
// document frequency) are aggregated before scoring, which keeps ranked
// results — order and score — bit-identical across shard counts.
// Add takes only the owning shard's write lock, so concurrent bulk
// loading scales across cores; SearchQuery fans out across shards in
// parallel and merges the per-shard results through a bounded top-k
// heap.
//
// # Query cache
//
// An LRU cache (Options.CacheSize, default DefaultCacheSize) keyed on
// the normalized query memoizes ranked results. Every Add bumps the
// index generation, which invalidates all cached entries at once —
// smart-query workloads are many small repeated queries over a corpus
// that mutates rarely, exactly the shape an LRU absorbs.
package index

import (
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"etap/internal/obs"
	"etap/internal/textproc"
)

// Search traffic reports into the process-wide registry — the search
// substrate serves every smart query, so postings volume and cache
// efficiency are the first places training-cost regressions show up.
var (
	mQueries = obs.Default.Counter("etap_index_queries_total",
		"Search queries served by the inverted index.")
	mPostings = obs.Default.Counter("etap_index_postings_scanned_total",
		"Postings-list entries touched while resolving queries.")
	mCacheHits = obs.Default.Counter("etap_index_cache_hits_total",
		"Queries answered from the result cache.")
	mCacheMisses = obs.Default.Counter("etap_index_cache_misses_total",
		"Queries that had to be resolved against the shards.")
	mCacheEvictions = obs.Default.Counter("etap_index_cache_evictions_total",
		"Cache entries evicted by the LRU capacity bound.")
	mCacheEntries = obs.Default.Gauge("etap_index_cache_entries",
		"Live entries in the query-result cache.")
	mFanout = obs.Default.Histogram("etap_index_fanout_duration_seconds",
		"Wall time of the per-query parallel fan-out across shards.", nil)
)

// Posting records the positions of one term in one document. Doc is an
// index into the owning shard's document table (shard-local, not
// global).
type Posting struct {
	Doc       int32
	Positions []int32
}

// Hit is one ranked search result.
type Hit struct {
	DocID string
	Score float64
}

// Options configures a new index.
type Options struct {
	// Shards is the number of index shards; 0 means GOMAXPROCS, and
	// values are clamped to at least 1. More shards increase bulk-load
	// and query fan-out parallelism; ranked results are identical for
	// any shard count.
	Shards int
	// CacheSize is the query-result cache capacity in entries; 0 means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
}

// Index is a positional inverted index over added documents, sharded by
// document ID. Add and the query methods are safe for concurrent use —
// build with concurrent Adds, search from any number of goroutines. A
// search concurrent with Adds sees some consistent prefix of the
// documents added so far.
type Index struct {
	shards []*shard
	gen    atomic.Uint64 // bumped on every Add; versions cache entries
	cache  *queryCache   // nil when disabled
}

// New returns an empty index with default options (GOMAXPROCS shards,
// DefaultCacheSize query cache).
func New() *Index { return NewWithOptions(Options{}) }

// NewWithOptions returns an empty index configured by o.
func NewWithOptions(o Options) *Index {
	n := o.Shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	ix := &Index{shards: make([]*shard, n)}
	for i := range ix.shards {
		ix.shards[i] = newShard()
	}
	switch {
	case o.CacheSize > 0:
		ix.cache = newQueryCache(o.CacheSize)
	case o.CacheSize == 0:
		ix.cache = newQueryCache(DefaultCacheSize)
	}
	return ix
}

// Shards returns the shard count.
func (ix *Index) Shards() int { return len(ix.shards) }

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	n := 0
	for _, s := range ix.shards {
		s.mu.RLock()
		n += len(s.ids)
		s.mu.RUnlock()
	}
	return n
}

// routeSeed perturbs the routing hash. It is a constant, so shard and
// writer-lane placement is a pure function of the document ID and
// reproduces exactly across restarts.
const routeSeed = 42

// route hashes a document ID for shard and writer-lane routing: FNV-1a
// over the ID, seed-perturbed, then finalized with splitmix64 so
// low-entropy IDs still spread across shards.
func route(docID string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(docID); i++ {
		h ^= uint64(docID[i])
		h *= 1099511628211
	}
	h ^= routeSeed
	h ^= h >> 30
	h *= 0xbf58476d1ce4e9b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// shardFor routes a document ID to its owning shard.
func (ix *Index) shardFor(docID string) *shard { return ix.shards[ix.laneOf(docID)] }

// laneOf routes a document ID to its owning shard's index.
func (ix *Index) laneOf(docID string) int {
	if len(ix.shards) == 1 {
		return 0
	}
	return int(route(docID) % uint64(len(ix.shards)))
}

// laneCount returns the shard count, for bulkLoad.
func (ix *Index) laneCount() int { return len(ix.shards) }

// unheld implements lanes through the shard's read lock.
func (ix *Index) unheld(l int, docs []Doc, idx []int) []int {
	return ix.shards[l].unheld(docs, idx)
}

// appendDoc adds a tokenized document to shard l, reporting a
// duplicate ID instead, and invalidates the query cache.
func (ix *Index) appendDoc(l int, docID string, ts []string) (dup bool) {
	if ix.shards[l].add(docID, ts) {
		return true
	}
	ix.gen.Add(1)
	return false
}

// scanTerms replaces sc.Words with the index terms of parts and
// returns them: lower-cased stemmed word tokens plus number tokens (so
// queries like "Q4 2004" work). Parts are read in order as one text
// with a space between them, so positions continue across parts and a
// phrase may span two of them. The add path indexes straight from this
// pooled scratch; once it is warm, and every stem is in textproc's
// word table, a document's terms allocate nothing.
func scanTerms(sc *textproc.Scratch, parts []string) []string {
	clear(sc.Words)
	sc.Words = sc.Words[:0]
	for _, p := range parts {
		for _, t := range sc.Tokenize(p) {
			switch t.Kind {
			case textproc.KindWord:
				sc.Words = append(sc.Words, textproc.Stem(t.Text))
			case textproc.KindNumber:
				sc.Words = append(sc.Words, t.Text)
			}
		}
	}
	return sc.Words
}

// terms returns the index terms of parts (see scanTerms) in a slice of
// their own, for a caller that keeps them, such as a parsed Query.
func terms(parts ...string) []string {
	sc := textproc.GetScratch()
	defer sc.Release()
	return slices.Clone(scanTerms(sc, parts))
}

// Add indexes a document made of parts, such as a page's title and
// text, read as one text with a space between parts. It is safe to
// call concurrently: tokenization runs outside any lock and only the
// owning shard's write lock is taken, so bulk loading parallelizes
// across shards. Adding the same docID twice panics: the index has no
// delete path and silent double-indexing would corrupt scores. Every
// Add invalidates the query cache (by advancing the index generation).
func (ix *Index) Add(docID string, parts ...string) {
	sc := textproc.GetScratch()
	dup := ix.appendDoc(ix.laneOf(docID), docID, scanTerms(sc, parts))
	sc.Release()
	if dup {
		panic("index: duplicate document " + docID)
	}
}

// AddDocs indexes docs shard by shard (see bulkLoad): each shard skips
// the documents it already holds and appends the rest in order, while
// tokenization runs on every core. The result is that of calling Add
// for each document not yet indexed, in order.
func (ix *Index) AddDocs(docs []Doc) { bulkLoad(ix, docs) }

// Has reports whether docID is already indexed. It is safe for
// concurrent use and lets idempotent loaders (a web re-opened over a
// persistent engine, replayed ingest streams) skip documents instead
// of tripping the duplicate-Add panic.
func (ix *Index) Has(docID string) bool {
	return ix.shardFor(docID).has(docID)
}

// BM25 parameters (standard defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Query is a parsed search query: required phrases (quoted in the input)
// and required terms. All parts must match (conjunctive semantics — a
// smart query is precision-oriented).
type Query struct {
	Phrases [][]string
	Terms   []string
}

// ParseQuery splits a query string into quoted phrases and bare terms,
// normalizing both like document text. An unterminated quote is not a
// phrase: its quote character is dropped and the tail parses as plain
// terms.
func ParseQuery(q string) Query {
	var out Query
	for {
		start := strings.IndexByte(q, '"')
		if start < 0 {
			break
		}
		end := strings.IndexByte(q[start+1:], '"')
		if end < 0 {
			// Unterminated quote: strip it and fall through to plain
			// term parsing instead of silently dropping the tail.
			q = q[:start] + " " + q[start+1:]
			break
		}
		phrase := q[start+1 : start+1+end]
		if ts := terms(phrase); len(ts) > 0 {
			out.Phrases = append(out.Phrases, ts)
		}
		q = q[:start] + " " + q[start+1+end+1:]
	}
	out.Terms = terms(q)
	return out
}

// Search ranks documents matching the query and returns the top k (all
// matches when k <= 0). Multi-token phrases require adjacency; terms and
// phrases combine conjunctively; ranking is BM25 over all query tokens.
//
//etaplint:ignore context-plumbing -- purely in-memory lookup: no I/O to cancel, and a ctx parameter would suggest otherwise
func (ix *Index) Search(query string, k int) []Hit {
	return ix.SearchQuery(ParseQuery(query), k)
}

// SearchQuery is Search over a pre-parsed query: cache lookup first,
// then a parallel fan-out across shards merged through a bounded top-k
// heap. Results are identical — order and score — for any shard count.
//
//etaplint:ignore context-plumbing -- purely in-memory lookup: no I/O to cancel, and a ctx parameter would suggest otherwise
func (ix *Index) SearchQuery(q Query, k int) []Hit {
	mQueries.Inc()

	allTerms, phrases := flattenQuery(q)
	if len(allTerms) == 0 {
		return nil
	}

	var key string
	gen := ix.gen.Load()
	if ix.cache != nil {
		key = cacheKey(q, k)
		if hits, ok := ix.cache.get(key, gen); ok {
			return hits
		}
	}

	hits := resolveParts(ix.parts(), allTerms, phrases, k, true)
	if ix.cache != nil {
		// Versioned under the generation read before resolving: if an
		// Add raced the search, the entry is already stale and the next
		// get drops it.
		ix.cache.put(key, gen, hits)
	}
	return hits
}

// parts adapts the shard slice to the engine-neutral part interface the
// shared resolver operates on.
func (ix *Index) parts() []part {
	parts := make([]part, len(ix.shards))
	for i, s := range ix.shards {
		parts[i] = s
	}
	return parts
}

// DocFreq returns the document frequency of a term (normalized like
// document text), used by the PMI-IR lexicon induction.
func (ix *Index) DocFreq(term string) int {
	ts := terms(term)
	if len(ts) == 0 {
		return 0
	}
	n := 0
	for _, s := range ix.shards {
		n += s.docFreq(ts[0])
	}
	return n
}

// CoDocFreq returns the number of documents containing both terms —
// whole-document co-occurrence.
func (ix *Index) CoDocFreq(a, b string) int {
	return coFreq(ix.parts(), a, b, 0)
}

// CoNearFreq returns the number of documents where the two terms occur
// within `window` token positions of each other — the NEAR operator of
// Turney's PMI-IR. window <= 0 degrades to CoDocFreq.
func (ix *Index) CoNearFreq(a, b string, window int) int {
	return coFreq(ix.parts(), a, b, window)
}

// Stats is a point-in-time summary of the index, for operational
// inspection (corpusgen -index, tests, logs).
type Stats struct {
	// Docs is the number of indexed documents.
	Docs int
	// Shards is the configured shard count.
	Shards int
	// Terms is the total number of term→postings entries summed across
	// shards (a term present in several shards counts once per shard).
	Terms int
	// Postings is the total number of (term, document) postings.
	Postings int
	// CacheEntries is the number of live query-cache entries; zero when
	// the cache is disabled.
	CacheEntries int
	// Segments is the number of committed on-disk segments; always zero
	// for the in-RAM engine.
	Segments int
}

// IndexStats returns current index statistics.
func (ix *Index) IndexStats() Stats {
	st := Stats{Shards: len(ix.shards)}
	for _, s := range ix.shards {
		d, t, p := s.size()
		st.Docs += d
		st.Terms += t
		st.Postings += p
	}
	if ix.cache != nil {
		st.CacheEntries = ix.cache.len()
	}
	return st
}
