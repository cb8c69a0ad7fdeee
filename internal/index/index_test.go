package index

import (
	"fmt"
	"testing"
)

func buildIndex(t testing.TB) *SegmentIndex {
	ix := memoryIndex(t, 0, 0)
	ix.Add("d1", "Acme named a new CEO on Friday after the old chief resigned")
	ix.Add("d2", "The new CEO of Widget Corp outlined a growth strategy")
	ix.Add("d3", "A ceo search firm ranked the new executives of the year")
	ix.Add("d4", "Weather stayed pleasant and the new park opened")
	ix.Add("d5", "IBM acquired Daksh for millions and analysts cheered")
	ix.Add("d6", "Daksh employees welcomed the IBM deal in Bangalore")
	return ix
}

func ids(hits []Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.DocID
	}
	return out
}

func TestSearchPhrase(t *testing.T) {
	ix := buildIndex(t)
	hits := ix.Search(`"new ceo"`, 0)
	got := map[string]bool{}
	for _, h := range hits {
		got[h.DocID] = true
	}
	if !got["d1"] || !got["d2"] {
		t.Fatalf("phrase results = %v, want d1 and d2", ids(hits))
	}
	if got["d3"] {
		t.Fatalf("d3 matched phrase but tokens are not adjacent: %v", ids(hits))
	}
	if got["d4"] {
		t.Fatalf("d4 has 'new' but no 'ceo': %v", ids(hits))
	}
}

func TestSearchConjunctiveTerms(t *testing.T) {
	ix := buildIndex(t)
	hits := ix.Search("IBM Daksh", 0)
	if len(hits) != 2 {
		t.Fatalf("got %v, want d5 and d6", ids(hits))
	}
	for _, h := range hits {
		if h.DocID != "d5" && h.DocID != "d6" {
			t.Fatalf("unexpected hit %v", h)
		}
	}
}

func TestSearchMissingTermEmptiesResult(t *testing.T) {
	ix := buildIndex(t)
	if hits := ix.Search("IBM zebra", 0); len(hits) != 0 {
		t.Fatalf("conjunctive semantics violated: %v", ids(hits))
	}
}

func TestSearchTopK(t *testing.T) {
	ix := buildIndex(t)
	hits := ix.Search("new", 1)
	if len(hits) != 1 {
		t.Fatalf("k=1 returned %d hits", len(hits))
	}
}

func TestSearchRankingPrefersHigherTF(t *testing.T) {
	ix := memoryIndex(t, 0, 0)
	ix.Add("rich", "merger merger merger merger deal deal")
	ix.Add("poor", "merger happened and many other things were also discussed at length today")
	hits := ix.Search("merger", 0)
	if len(hits) != 2 || hits[0].DocID != "rich" {
		t.Fatalf("ranking = %v", ids(hits))
	}
	if hits[0].Score <= hits[1].Score {
		t.Fatalf("scores not ordered: %v", hits)
	}
}

func TestSearchStemsQueryAndDocument(t *testing.T) {
	ix := memoryIndex(t, 0, 0)
	ix.Add("d", "The company acquired three startups")
	if hits := ix.Search("acquire", 0); len(hits) != 1 {
		t.Fatalf("stemming failed: %v", ids(hits))
	}
	if hits := ix.Search("acquisitions acquired", 0); len(hits) != 0 {
		// "acquisitions" stems to acquisit, absent from the doc.
		t.Fatalf("conjunctive stem mismatch should return empty: %v", ids(hits))
	}
}

func TestSearchNumbers(t *testing.T) {
	ix := memoryIndex(t, 0, 0)
	ix.Add("d", "Revenue for Q4 2004 reached record levels")
	if hits := ix.Search("2004", 0); len(hits) != 1 {
		t.Fatalf("number search failed: %v", ids(hits))
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	ix := buildIndex(t)
	if hits := ix.Search("", 0); hits != nil {
		t.Fatalf("empty query: %v", ids(hits))
	}
	if hits := ix.Search(`""`, 0); hits != nil {
		t.Fatalf("empty phrase: %v", ids(hits))
	}
}

func TestSearchCaseInsensitive(t *testing.T) {
	ix := buildIndex(t)
	a := ix.Search("ibm daksh", 0)
	b := ix.Search("IBM DAKSH", 0)
	if len(a) != len(b) {
		t.Fatalf("case sensitivity: %v vs %v", ids(a), ids(b))
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	ix := memoryIndex(t, 0, 0)
	ix.Add("d", "text")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate add")
		}
	}()
	ix.Add("d", "other text")
}

func TestParseQuery(t *testing.T) {
	q := ParseQuery(`"new ceo" growth "change in management"`)
	if len(q.Phrases) != 2 {
		t.Fatalf("phrases = %v", q.Phrases)
	}
	if len(q.Phrases[0]) != 2 || q.Phrases[0][0] != "new" || q.Phrases[0][1] != "ceo" {
		t.Fatalf("first phrase = %v", q.Phrases[0])
	}
	if len(q.Terms) != 1 || q.Terms[0] != "growth" {
		t.Fatalf("terms = %v", q.Terms)
	}
}

func TestParseQueryUnterminatedQuote(t *testing.T) {
	// A dangling quote must not swallow the rest of the query: the tail
	// parses as plain terms.
	q := ParseQuery(`growth "new ceo`)
	if len(q.Phrases) != 0 {
		t.Fatalf("phrases = %v, want none", q.Phrases)
	}
	want := map[string]bool{"growth": true, "new": true, "ceo": true}
	if len(q.Terms) != 3 {
		t.Fatalf("terms = %v, want growth/new/ceo", q.Terms)
	}
	for _, term := range q.Terms {
		if !want[term] {
			t.Fatalf("unexpected term %q in %v", term, q.Terms)
		}
	}
	// A valid phrase before the dangling quote still parses as a phrase.
	q = ParseQuery(`"IBM Daksh" deal "new ceo`)
	if len(q.Phrases) != 1 || len(q.Phrases[0]) != 2 {
		t.Fatalf("phrases = %v, want the IBM Daksh phrase only", q.Phrases)
	}
	if len(q.Terms) != 3 {
		t.Fatalf("terms = %v, want deal/new/ceo", q.Terms)
	}
}

func TestSearchUnterminatedQuoteMatches(t *testing.T) {
	ix := buildIndex(t)
	// Previously the dangling-quote tail was dropped and this query
	// degenerated to match-nothing; now it behaves like "IBM Daksh".
	hits := ix.Search(`IBM "Daksh`, 0)
	if len(hits) != 2 {
		t.Fatalf("got %v, want d5 and d6", ids(hits))
	}
}

// TestShardsAndStats checks that Stats reports the writer lanes the
// engine was opened with, as Shards, beside its documents and postings.
func TestShardsAndStats(t *testing.T) {
	ix := memoryIndex(t, 3, 0)
	ix.Add("a", "merger announced today")
	ix.Add("b", "merger closed yesterday")
	st := ix.IndexStats()
	if st.Docs != 2 || st.Shards != 3 || st.Postings == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDocFreqAndCoDocFreq(t *testing.T) {
	ix := buildIndex(t)
	if df := ix.DocFreq("ceo"); df != 3 {
		t.Errorf("DocFreq(ceo) = %d, want 3", df)
	}
	if df := ix.DocFreq("zebra"); df != 0 {
		t.Errorf("DocFreq(zebra) = %d, want 0", df)
	}
	if co := ix.CoDocFreq("IBM", "Daksh"); co != 2 {
		t.Errorf("CoDocFreq(IBM, Daksh) = %d, want 2", co)
	}
	if co := ix.CoDocFreq("IBM", "weather"); co != 0 {
		t.Errorf("CoDocFreq(IBM, weather) = %d, want 0", co)
	}
}

func TestCoNearFreq(t *testing.T) {
	ix := memoryIndex(t, 0, 0)
	ix.Add("near", "revenue up sharply this quarter")
	ix.Add("far", "revenue was flat but the outlook and many other parts of the business with different words entirely looked up")
	ix.Add("none", "revenue was flat")

	if got := ix.CoNearFreq("revenue", "up", 5); got != 1 {
		t.Errorf("window 5: got %d, want 1 (only the adjacent doc)", got)
	}
	if got := ix.CoNearFreq("revenue", "up", 50); got != 2 {
		t.Errorf("window 50: got %d, want 2", got)
	}
	// window <= 0 degrades to document co-occurrence.
	if got := ix.CoNearFreq("revenue", "up", 0); got != ix.CoDocFreq("revenue", "up") {
		t.Errorf("window 0: got %d, want CoDocFreq", got)
	}
	if got := ix.CoNearFreq("revenue", "zebra", 5); got != 0 {
		t.Errorf("absent term: got %d", got)
	}
}

func TestSearchDeterministicOrder(t *testing.T) {
	ix := buildIndex(t)
	a := ids(ix.Search("the new", 0))
	b := ids(ix.Search("the new", 0))
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("nondeterministic order: %v vs %v", a, b)
	}
}

func BenchmarkSearchPhrase(b *testing.B) {
	ix := memoryIndex(b, 0, 0)
	for i := 0; i < 2000; i++ {
		ix.Add(fmt.Sprintf("d%d", i),
			"The new CEO of the company outlined a growth strategy for the coming year and investors reacted")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(`"new ceo"`, 10)
	}
}

func BenchmarkAdd(b *testing.B) {
	text := "The new CEO of the company outlined a growth strategy for the coming year and investors reacted"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := memoryIndex(b, 0, 0)
		for j := 0; j < 100; j++ {
			ix.Add(fmt.Sprintf("d%d", j), text)
		}
	}
}
