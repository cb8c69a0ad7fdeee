package index

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
)

// answersDigest pins every answer the shared matchAndScore and countCo
// give over digestCorpus: the ranked hits of each of digestQueries at
// k=25 and k=200 (DocID and the exact score bits), and DocFreq,
// CoDocFreq and CoNearFreq at windows 0, 5 and 10 for each of
// digestPairs. Both engines run those functions, so an engine
// equivalence test cannot see a change that moves both. The digest was
// computed before conjunctive matching became a merge, and it is the
// reference that outlives the in-RAM engine.
const answersDigest = "680826c36a81b9b4c91ce42c36dded8c2f62044b5bff6d52c235866bb26f9fcc"

// digestCorpus is the corpus answersDigest was computed over.
func digestCorpus() []corpusDoc { return syntheticCorpus(6000, 42) }

// digestQueries are the golden queries plus longer ones: a score
// summed over four or five terms changes its last bits when the terms
// are added in another order, which two- and three-term sums rarely
// show.
var digestQueries = append(slices.Clone(goldenQueries),
	"acme acquired revenue analysts",
	"ibm merger quarterly earnings 2004",
	`"record revenue" hooli bangalore announced`,
	`globex "cost cuts" "this quarter"`,
)

// digestPairs are the co-occurrence lookups answersDigest covers:
// frequent and rare pairs, a term with itself, a number, and a term
// that occurs nowhere.
var digestPairs = [][2]string{
	{"acme", "ceo"},
	{"IBM", "Daksh"},
	{"merger", "quarterly"},
	{"acquired", "revenue"},
	{"2004", "analysts"},
	{"new", "leadership"},
	{"growth", "strategy"},
	{"widget", "corp"},
	{"hooli", "bangalore"},
	{"acme", "acme"},
	{"zeppelin", "acme"},
}

// engineAnswersDigest hashes eng's answers in the order answersDigest
// fixes.
func engineAnswersDigest(eng Engine) string {
	h := sha256.New()
	for _, k := range []int{25, 200} {
		for _, q := range digestQueries {
			fmt.Fprintf(h, "search %q k=%d\n", q, k)
			for _, hit := range eng.Search(q, k) {
				fmt.Fprintf(h, "%s %016x\n", hit.DocID, math.Float64bits(hit.Score))
			}
		}
	}
	for _, p := range digestPairs {
		fmt.Fprintf(h, "df %q=%d %q=%d co=%d", p[0], eng.DocFreq(p[0]), p[1], eng.DocFreq(p[1]), eng.CoDocFreq(p[0], p[1]))
		for _, w := range []int{0, 5, 10} {
			fmt.Fprintf(h, " near%d=%d", w, eng.CoNearFreq(p[0], p[1], w))
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnswersMatchPinnedDigest checks the in-RAM engine at one and
// four shards, a segment engine whose documents all sit in one
// memtable, and a segment engine reopened over flushed and merged
// on-disk segments against answersDigest.
func TestAnswersMatchPinnedDigest(t *testing.T) {
	docs := digestCorpus()
	check := func(t *testing.T, eng Engine) {
		t.Helper()
		if got := engineAnswersDigest(eng); got != answersDigest {
			t.Fatalf("answers digest = %s, want %s", got, answersDigest)
		}
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("in-ram-%d", shards), func(t *testing.T) {
			ix := NewWithOptions(Options{Shards: shards, CacheSize: -1})
			for _, d := range docs {
				ix.Add(d.id, d.text)
			}
			check(t, ix)
		})
	}
	t.Run("memtable", func(t *testing.T) {
		si := buildSegmentIndex(t, SegmentOptions{Writers: 1, FlushDocs: 1 << 30, CacheSize: -1}, docs)
		if st := si.SegmentStats(); st.Segments != 0 {
			t.Fatalf("memtable-only engine committed %d segments", st.Segments)
		}
		check(t, si)
	})
	t.Run("flushed-merged", func(t *testing.T) {
		const flushDocs = 300
		dir := t.TempDir()
		si := buildSegmentIndex(t, SegmentOptions{Dir: dir, Writers: 2, FlushDocs: flushDocs, MergeFactor: 2}, docs)
		// Wait for the merger to compact the flushes, so the reopened
		// engine reads merged segments and not only flushed ones.
		deadline := time.Now().Add(10 * time.Second)
		for st := si.SegmentStats(); st.Segments == 0 || st.Segments >= st.SegmentDocs/flushDocs; st = si.SegmentStats() {
			if time.Now().After(deadline) {
				t.Fatalf("merger never compacted: %+v", st)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := si.Close(); err != nil {
			t.Fatal(err)
		}
		reopened := buildSegmentIndex(t, SegmentOptions{Dir: dir, CacheSize: -1}, nil)
		if st := reopened.SegmentStats(); st.MemtableDocs != 0 || st.SegmentDocs != len(docs) {
			t.Fatalf("reopened engine is not all on disk: %+v", st)
		}
		check(t, reopened)
	})
}
