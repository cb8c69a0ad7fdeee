package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// corpusDoc is one synthetic document for the index tests.
type corpusDoc struct {
	id, text string
}

// syntheticCorpus generates n deterministic pseudo-business documents
// with a seeded source, so every engine configuration indexes the exact
// same material.
func syntheticCorpus(n int, seed int64) []corpusDoc {
	rng := rand.New(rand.NewSource(seed))
	subjects := []string{"Acme", "Widget Corp", "IBM", "Daksh", "Initech", "Globex", "Hooli", "Vandelay"}
	verbs := []string{"acquired", "merged with", "appointed", "reported", "announced", "outlined", "expanded", "restructured"}
	objects := []string{"a new CEO", "record revenue", "a growth strategy", "the merger", "quarterly earnings", "a joint venture", "new leadership", "cost cuts"}
	tails := []string{"on Friday", "in Bangalore", "for millions", "this quarter", "after the announcement", "according to analysts", "in 2004", "despite concerns"}
	docs := make([]corpusDoc, n)
	for i := range docs {
		var text string
		sentences := 2 + rng.Intn(4)
		for s := 0; s < sentences; s++ {
			text += fmt.Sprintf("%s %s %s %s. ",
				subjects[rng.Intn(len(subjects))],
				verbs[rng.Intn(len(verbs))],
				objects[rng.Intn(len(objects))],
				tails[rng.Intn(len(tails))])
		}
		docs[i] = corpusDoc{id: fmt.Sprintf("doc-%05d", i), text: text}
	}
	return docs
}

var goldenQueries = []string{
	`"new ceo"`,
	"IBM Daksh",
	"acquired",
	`"growth strategy" revenue`,
	"merger quarterly",
	"2004",
	`"joint venture"`,
	"Acme announced",
}

// TestShardedMatchesSingleShard pins the core correctness property of
// routing documents across writer lanes: for every lane count, Search
// returns exactly the hits — order AND score — of the brute-force
// model over the same documents, which a single lane returns too.
func TestShardedMatchesSingleShard(t *testing.T) {
	docs := syntheticCorpus(3000, 42)
	m := newIndexModel()
	for _, d := range docs {
		m.add(d.id, d.text)
	}
	for _, lanes := range []int{1, 2, 3, 4, 7, 16} {
		t.Run(fmt.Sprint(lanes), func(t *testing.T) {
			ix := memoryIndex(t, lanes, -1)
			for _, d := range docs {
				ix.Add(d.id, d.text)
			}
			checkAgainstModel(t, ix, m, goldenQueries, []int{0, 1, 10, 100})
		})
	}
}

// TestConcurrentBulkAddMatchesSequential loads the same corpus with
// many goroutines and verifies the resulting ranked output is that of
// the model over a sequential load.
func TestConcurrentBulkAddMatchesSequential(t *testing.T) {
	docs := syntheticCorpus(2000, 7)
	seq := newIndexModel()
	for _, d := range docs {
		seq.add(d.id, d.text)
	}

	conc := memoryIndex(t, 4, -1)
	var wg sync.WaitGroup
	jobs := make(chan corpusDoc)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range jobs {
				conc.Add(d.id, d.text)
			}
		}()
	}
	for _, d := range docs {
		jobs <- d
	}
	close(jobs)
	wg.Wait()
	checkAgainstModel(t, conc, seq, goldenQueries, []int{20})
}

// TestConcurrentAddAndSearch exercises Add racing SearchQuery and the
// co-occurrence readers under -race. Results are not asserted beyond
// basic sanity — the point is that no access is unsynchronized.
func TestConcurrentAddAndSearch(t *testing.T) {
	docs := syntheticCorpus(1500, 99)
	ix := memoryIndex(t, 0, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, d := range docs {
			ix.Add(d.id, d.text)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := goldenQueries[(i+r)%len(goldenQueries)]
				for _, h := range ix.Search(q, 10) {
					if h.DocID == "" {
						t.Error("hit without DocID")
						return
					}
				}
				ix.DocFreq("merger")
				ix.CoNearFreq("revenue", "growth", 5)
				ix.Len()
			}
		}(r)
	}
	wg.Wait()
	if ix.Len() != len(docs) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(docs))
	}
}

// TestCacheInvalidationOnAdd pins the cache contract: a cached result
// must not survive a mutation of the index.
func TestCacheInvalidationOnAdd(t *testing.T) {
	ix := memoryIndex(t, 4, 64)
	ix.Add("d1", "Acme appointed a new CEO")
	if n := len(ix.Search(`"new ceo"`, 0)); n != 1 {
		t.Fatalf("first search: %d hits, want 1", n)
	}
	// Warm hit.
	if n := len(ix.Search(`"new ceo"`, 0)); n != 1 {
		t.Fatalf("cached search: %d hits, want 1", n)
	}
	ix.Add("d2", "Widget Corp also has a new CEO now")
	hits := ix.Search(`"new ceo"`, 0)
	if len(hits) != 2 {
		t.Fatalf("post-Add search served stale cache: %d hits, want 2 (%v)", len(hits), hits)
	}
}

// TestCacheHitIdenticalResults verifies that a cache hit returns the
// same hits as the cold query, and that callers can mutate the returned
// slice without corrupting the cache.
func TestCacheHitIdenticalResults(t *testing.T) {
	docs := syntheticCorpus(500, 3)
	ix := memoryIndex(t, 4, 64)
	for _, d := range docs {
		ix.Add(d.id, d.text)
	}
	cold := ix.Search("acquired merger", 25)
	warm := ix.Search("acquired merger", 25)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cache hit diverged:\ncold %v\nwarm %v", cold, warm)
	}
	if len(warm) > 1 {
		warm[0], warm[1] = warm[1], warm[0] // caller mutates its copy
		again := ix.Search("acquired merger", 25)
		if !reflect.DeepEqual(cold, again) {
			t.Fatal("caller mutation leaked into the cache")
		}
	}
}

// TestCacheEviction fills a tiny cache past capacity and checks the LRU
// bound holds.
func TestCacheEviction(t *testing.T) {
	ix := memoryIndex(t, 2, 4)
	docs := syntheticCorpus(200, 11)
	for _, d := range docs {
		ix.Add(d.id, d.text)
	}
	queries := []string{"acquired", "merger", "revenue", "ceo", "quarterly", "venture", "leadership"}
	for _, q := range queries {
		ix.Search(q, 5)
	}
	if got := ix.IndexStats().CacheEntries; got > 4 {
		t.Fatalf("cache holds %d entries, capacity 4", got)
	}
}

// TestCacheDisabled verifies CacheSize < 0 turns caching off entirely.
func TestCacheDisabled(t *testing.T) {
	ix := memoryIndex(t, 2, -1)
	ix.Add("d1", "merger announced")
	ix.Search("merger", 0)
	ix.Search("merger", 0)
	if got := ix.IndexStats().CacheEntries; got != 0 {
		t.Fatalf("disabled cache holds %d entries", got)
	}
}

// TestCacheKeyNormalization: queries differing only in bare-term order
// share one cache entry; phrase-internal order must NOT be conflated.
func TestCacheKeyNormalization(t *testing.T) {
	a := cacheKey(ParseQuery("IBM Daksh"), 10)
	b := cacheKey(ParseQuery("Daksh IBM"), 10)
	if a != b {
		t.Errorf("term order changed the key: %q vs %q", a, b)
	}
	c := cacheKey(ParseQuery(`"new ceo"`), 10)
	d := cacheKey(ParseQuery(`"ceo new"`), 10)
	if c == d {
		t.Error("phrase-internal order must be significant")
	}
	e := cacheKey(ParseQuery("IBM Daksh"), 20)
	if a == e {
		t.Error("k must be part of the key")
	}
}

// TestTopKMatchesFullSort cross-checks the bounded-heap merge against a
// plain sort for random hit sets.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		hits := make([]Hit, n)
		for i := range hits {
			hits[i] = Hit{DocID: fmt.Sprintf("d%04d", i), Score: float64(rng.Intn(20)) / 3}
		}
		k := rng.Intn(n + 10)
		merger := newTopK(k, n)
		for _, h := range hits {
			merger.push(h)
		}
		got := merger.results()

		full := newTopK(0, n)
		for _, h := range hits {
			full.push(h)
		}
		want := full.results()
		if k > 0 && len(want) > k {
			want = want[:k]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d k=%d:\n got %v\nwant %v", trial, k, got, want)
		}
	}
}
