package index

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// indexModel is the brute-force reference the engine is checked
// against: it keeps each document's index terms in position order and
// answers every question by scanning all of them. It shares only the
// tokenizer and the BM25 constants with the engine — no postings, no
// parts, no top-k heap.
type indexModel struct {
	docs map[string][]string // docID → index terms in position order
}

func newIndexModel() *indexModel { return &indexModel{docs: make(map[string][]string)} }

// add records a document as Add(id, parts...) indexes it.
func (m *indexModel) add(id string, parts ...string) { m.docs[id] = terms(parts...) }

// search answers q the way the engine ranks it: every token required,
// every multi-token phrase contiguous, BM25 over the sorted distinct
// tokens with corpus-wide idf and average length, ties broken by DocID,
// the first k kept (all when k <= 0).
func (m *indexModel) search(q Query, k int) []Hit {
	var distinct []string
	var phrases [][]string
	distinct = append(distinct, q.Terms...)
	for _, p := range q.Phrases {
		distinct = append(distinct, p...)
		if len(p) > 1 {
			phrases = append(phrases, p)
		}
	}
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	if len(distinct) == 0 {
		return nil
	}
	total := 0.0
	df := make([]int, len(distinct))
	for _, ts := range m.docs {
		total += float64(len(ts))
		for i, t := range distinct {
			if slices.Contains(ts, t) {
				df[i]++
			}
		}
	}
	n := len(m.docs)
	avgLen := total / max(1, float64(n))
	var hits []Hit
	for id, ts := range m.docs {
		score := 0.0
		for i, t := range distinct {
			tf := 0.0
			for _, dt := range ts {
				if dt == t {
					tf++
				}
			}
			if tf == 0 {
				score = -1
				break
			}
			w := math.Log(1 + (float64(n)-float64(df[i])+0.5)/(float64(df[i])+0.5))
			score += w * tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*float64(len(ts))/avgLen))
		}
		if score >= 0 && hasPhrases(ts, phrases) {
			hits = append(hits, Hit{DocID: id, Score: score})
		}
	}
	slices.SortFunc(hits, func(a, b Hit) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.DocID, b.DocID)
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// hasPhrases reports whether every phrase occurs contiguously in ts.
func hasPhrases(ts []string, phrases [][]string) bool {
	for _, p := range phrases {
		found := false
		for at := 0; at+len(p) <= len(ts) && !found; at++ {
			found = slices.Equal(ts[at:at+len(p)], p)
		}
		if !found {
			return false
		}
	}
	return true
}

// docFreq counts the documents holding the term, normalized like text.
func (m *indexModel) docFreq(term string) int {
	ts := terms(term)
	if len(ts) == 0 {
		return 0
	}
	n := 0
	for _, dts := range m.docs {
		if slices.Contains(dts, ts[0]) {
			n++
		}
	}
	return n
}

// coFreq counts the documents holding both terms, with a position pair
// at most window apart when window > 0.
func (m *indexModel) coFreq(a, b string, window int) int {
	ta, tb := terms(a), terms(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	n := 0
	for _, ts := range m.docs {
		near := false
		for i, x := range ts {
			for j, y := range ts {
				if x == ta[0] && y == tb[0] && (window <= 0 || max(i-j, j-i) <= window) {
					near = true
				}
			}
		}
		if near {
			n++
		}
	}
	return n
}

// sameHits reports whether two rankings agree hit for hit, by DocID
// and by the bits of the score.
func sameHits(got, want []Hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].DocID != want[i].DocID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// checkAgainstModel compares eng's answers to every query in qs at
// each of ks, and its Len, with the model's.
func checkAgainstModel(t *testing.T, eng Engine, m *indexModel, qs []string, ks []int) {
	t.Helper()
	if eng.Len() != len(m.docs) {
		t.Fatalf("Len = %d, model holds %d", eng.Len(), len(m.docs))
	}
	for _, q := range qs {
		for _, k := range ks {
			if got, want := eng.Search(q, k), m.search(ParseQuery(q), k); !sameHits(got, want) {
				t.Fatalf("query %q k=%d:\n got %v\nwant %v", q, k, got, want)
			}
		}
	}
}

// memoryIndex opens a memory-only engine with the given writer lanes
// and query-cache capacity (0 = the defaults, negative cache = off).
func memoryIndex(tb testing.TB, writers, cacheSize int) *SegmentIndex {
	tb.Helper()
	si, err := OpenSegmentIndex(SegmentOptions{Writers: writers, CacheSize: cacheSize})
	if err != nil {
		tb.Fatalf("opening a memory-only engine: %v", err)
	}
	return si
}

// modelVocab is the vocabulary the model test draws documents and
// queries from: few enough words that queries match, and a number.
var modelVocab = []string{"acme", "new", "ceo", "named", "merger", "revenue",
	"growth", "ibm", "daksh", "quarter", "2004", "deal"}

// TestSegmentIndexModel drives the engine with seeded random sequences
// of Add, AddDocs (with documents it already holds, and duplicate IDs
// that must panic), Search and SearchQuery at k of 0, 1, 10 and 200,
// DocFreq, CoDocFreq, CoNearFreq, Has and Len, and — on durable
// engines with tiny flushes and merges — Close and a reopen with a
// different writer count. After every step each answer must equal the
// brute-force model's, hits by DocID and score bits.
func TestSegmentIndexModel(t *testing.T) {
	type config struct {
		name    string
		opts    SegmentOptions
		reopen  []int // writer counts to reopen a durable engine with
		durable bool
	}
	configs := []config{
		{name: "memory-1", opts: SegmentOptions{Writers: 1}},
		{name: "memory-3", opts: SegmentOptions{Writers: 3, CacheSize: 8}},
		{name: "durable", opts: SegmentOptions{Writers: 2, FlushDocs: 7, MergeFactor: 2}, reopen: []int{1, 4, 3}, durable: true},
	}
	ks := []int{0, 1, 10, 200}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				o := cfg.opts
				if cfg.durable {
					o.Dir = t.TempDir()
				}
				si, err := OpenSegmentIndex(o)
				if err != nil {
					t.Fatal(err)
				}
				m := newIndexModel()
				text := func() string {
					words := make([]string, rng.Intn(12))
					for i := range words {
						words[i] = modelVocab[rng.Intn(len(modelVocab))]
					}
					return strings.Join(words, " ")
				}
				query := func() string {
					var b strings.Builder
					for i := 0; i < 1+rng.Intn(3); i++ {
						if rng.Intn(3) == 0 {
							fmt.Fprintf(&b, `"%s %s" `, modelVocab[rng.Intn(len(modelVocab))], modelVocab[rng.Intn(len(modelVocab))])
						} else {
							fmt.Fprintf(&b, "%s ", modelVocab[rng.Intn(len(modelVocab))])
						}
					}
					return b.String()
				}
				word := func() string { return modelVocab[rng.Intn(len(modelVocab))] }
				id := func() string { return fmt.Sprintf("d%03d", rng.Intn(300)) }
				reopens := cfg.reopen
				for step := 0; step < 250; step++ {
					where := fmt.Sprintf("seed %d step %d", seed, step)
					switch op := rng.Intn(20); {
					case op < 5:
						d, parts := id(), []string{text()}
						if rng.Intn(2) == 0 {
							parts = append(parts, text())
						}
						_, held := m.docs[d]
						if r := catchPanic(func() { si.Add(d, parts...) }); (r != nil) != held {
							t.Fatalf("%s: Add(%s) with held=%v recovered %v", where, d, held, r)
						}
						if !held {
							m.add(d, parts...)
						}
					case op < 8:
						docs := make([]Doc, 1+rng.Intn(15))
						for i := range docs {
							docs[i] = Doc{ID: id(), Parts: []string{text(), text()}}
						}
						// Documents the engine holds are skipped; a new
						// ID that occurs twice panics, naming the first
						// repeated one, once the unique ones are in.
						var repeated string
						batch := make(map[string]bool)
						for _, d := range docs {
							if batch[d.ID] {
								if repeated == "" {
									repeated = d.ID
								}
								continue
							}
							if _, held := m.docs[d.ID]; held {
								continue
							}
							batch[d.ID] = true
							m.add(d.ID, d.Parts...)
						}
						r := catchPanic(func() { si.AddDocs(docs) })
						if repeated == "" && r != nil {
							t.Fatalf("%s: AddDocs panicked: %v", where, r)
						}
						if repeated != "" && !strings.Contains(fmt.Sprint(r), "duplicate document "+repeated) {
							t.Fatalf("%s: AddDocs with %s twice recovered %v", where, repeated, r)
						}
					case op < 11:
						q, k := query(), ks[rng.Intn(len(ks))]
						if got, want := si.Search(q, k), m.search(ParseQuery(q), k); !sameHits(got, want) {
							t.Fatalf("%s: Search(%q, %d):\n got %v\nwant %v", where, q, k, got, want)
						}
					case op < 13:
						pq := Query{Terms: terms(word(), word())}
						if rng.Intn(2) == 0 {
							pq.Phrases = [][]string{terms(word() + " " + word() + " " + word()), terms(word())}
						}
						k := ks[rng.Intn(len(ks))]
						if got, want := si.SearchQuery(pq, k), m.search(pq, k); !sameHits(got, want) {
							t.Fatalf("%s: SearchQuery(%+v, %d):\n got %v\nwant %v", where, pq, k, got, want)
						}
					case op < 16:
						a, b, w := word(), word(), []int{0, 1, 3, 10}[rng.Intn(4)]
						if got, want := si.DocFreq(a), m.docFreq(a); got != want {
							t.Fatalf("%s: DocFreq(%s) = %d, model %d", where, a, got, want)
						}
						if got, want := si.CoDocFreq(a, b), m.coFreq(a, b, 0); got != want {
							t.Fatalf("%s: CoDocFreq(%s, %s) = %d, model %d", where, a, b, got, want)
						}
						if got, want := si.CoNearFreq(a, b, w), m.coFreq(a, b, w); got != want {
							t.Fatalf("%s: CoNearFreq(%s, %s, %d) = %d, model %d", where, a, b, w, got, want)
						}
					case op < 19:
						d := id()
						if _, held := m.docs[d]; si.Has(d) != held {
							t.Fatalf("%s: Has(%s) = %v, model %v", where, d, !held, held)
						}
					default:
						if len(reopens) == 0 {
							continue
						}
						if err := si.Close(); err != nil {
							t.Fatalf("%s: Close: %v", where, err)
						}
						o.Writers, reopens = reopens[0], reopens[1:]
						if si, err = OpenSegmentIndex(o); err != nil {
							t.Fatalf("%s: reopen with %d writers: %v", where, o.Writers, err)
						}
					}
					checkAgainstModel(t, si, m, []string{query()}, []int{ks[rng.Intn(len(ks))]})
				}
				if err := si.Close(); err != nil {
					t.Fatalf("seed %d: Close: %v", seed, err)
				}
			}
		})
	}
}

// catchPanic runs f and returns what it panicked with, or nil.
func catchPanic(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}
