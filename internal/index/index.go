// Package index implements the inverted index and ranking that serve
// as ETAP's search engine substrate. The paper's training-data
// generation queries Google with "smart queries" like "new ceo" or "IBM
// Daksh" (Section 3.3.1); this index provides the same capability over
// the synthetic web: positional postings, BM25 ranking, quoted-phrase
// and conjunctive queries.
//
// # One engine
//
// SegmentIndex is the engine. A document is routed by a hash of its ID
// to one of N writer lanes (SegmentOptions.Writers, default GOMAXPROCS)
// and appended to that lane's memtable. With a directory the engine is
// durable: full memtables seal and flush to immutable on-disk segments
// that a tiered merger compacts (STORAGE.md). With an empty directory
// it is memory-only: the memtables never seal, and nothing touches
// disk. A document lives entirely within one part — a memtable or a
// segment — so matching and scoring are part-local; corpus-wide
// statistics (document count, average length, per-term document
// frequency) are aggregated before scoring, which keeps ranked results
// — order and score — bit-identical across lane counts, flushes and
// merges. Add takes only the owning lane's lock, so concurrent bulk
// loading scales across cores; SearchQuery fans out across parts in
// parallel and merges the per-part results through a bounded top-k
// heap.
//
// # Query cache
//
// An LRU cache (SegmentOptions.CacheSize, default DefaultCacheSize)
// keyed on the normalized query memoizes ranked results. Every Add
// bumps the index generation, which invalidates all cached entries at
// once — smart-query workloads are many small repeated queries over a
// corpus that mutates rarely, exactly the shape an LRU absorbs.
package index

import (
	"slices"
	"strings"

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
		"Queries that had to be resolved against the index parts.")
	mCacheEvictions = obs.Default.Counter("etap_index_cache_evictions_total",
		"Cache entries evicted by the LRU capacity bound.")
	mCacheEntries = obs.Default.Gauge("etap_index_cache_entries",
		"Live entries in the query-result cache.")
	mFanout = obs.Default.Histogram("etap_index_fanout_duration_seconds",
		"Wall time of the per-query parallel fan-out across index parts.", nil)
)

// Posting records the positions of one term in one document. Doc is an
// index into the owning part's document table (part-local, not
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

// routeSeed perturbs the routing hash. It is a constant, so writer-lane
// placement is a pure function of the document ID and
// reproduces exactly across restarts.
const routeSeed = 42

// route hashes a document ID for writer-lane routing: FNV-1a over the
// ID, seed-perturbed, then finalized with splitmix64 so low-entropy IDs
// still spread across lanes.
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

// Stats is a point-in-time summary of the index, for operational
// inspection (corpusgen -index, tests, logs).
type Stats struct {
	// Docs is the number of indexed documents.
	Docs int
	// Shards is the writer-lane count (SegmentOptions.Writers).
	Shards int
	// Terms is the total number of term→postings entries summed across
	// parts (a term present in several parts counts once per part).
	Terms int
	// Postings is the total number of (term, document) postings.
	Postings int
	// CacheEntries is the number of live query-cache entries; zero when
	// the cache is disabled.
	CacheEntries int
	// Segments is the number of committed on-disk segments; always zero
	// for a memory-only engine.
	Segments int
}
