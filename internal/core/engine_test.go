package core

import (
	"fmt"
	"testing"

	"etap/internal/corpus"
)

// TestBuildWebEngineReopen covers the persistent build path end to
// end: with IndexDir set, BuildWebEngine writes segments on first
// build, ranks identically to the in-RAM build, and a second build
// over the same directory re-opens the committed segments (no
// re-indexing — memtables stay empty) while still serving the same
// results over the rebuilt page table.
func TestBuildWebEngineReopen(t *testing.T) {
	docs := corpus.NewGenerator(corpus.Config{
		Seed: 93, RelevantPerDriver: 10, BackgroundDocs: 30,
		HardNegativePerDriver: 3, FamousEventDocs: 1,
	}).World()
	queries := []string{"merger", `"joint venture"`, "acquisition", "revenue growth"}

	ram := BuildWeb(docs)
	golden := make(map[string]string, len(queries))
	for _, q := range queries {
		hits := ram.Search(q, 10)
		urls := make([]string, len(hits))
		for i, h := range hits {
			urls[i] = h.URL
		}
		golden[q] = fmt.Sprint(urls)
	}

	cfg := Config{IndexDir: t.TempDir(), SegmentFlushDocs: 8}
	w1, err := BuildWebEngine(docs, cfg)
	if err != nil {
		t.Fatalf("first build: %v", err)
	}
	for _, q := range queries {
		hits := w1.Search(q, 10)
		urls := make([]string, len(hits))
		for i, h := range hits {
			urls[i] = h.URL
		}
		if fmt.Sprint(urls) != golden[q] {
			t.Errorf("query %q: segment build diverged from in-RAM: %v", q, urls)
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatalf("close first build: %v", err)
	}

	w2, err := BuildWebEngine(docs, cfg)
	if err != nil {
		t.Fatalf("rebuild over existing dir: %v", err)
	}
	defer w2.Close()
	st := w2.Index().IndexStats()
	if st.Docs != len(docs) || st.Segments == 0 {
		t.Fatalf("reopen stats = %+v, want %d docs served from segments", st, len(docs))
	}
	for _, q := range queries {
		hits := w2.Search(q, 10)
		urls := make([]string, len(hits))
		for i, h := range hits {
			urls[i] = h.URL
		}
		if fmt.Sprint(urls) != golden[q] {
			t.Errorf("query %q: reopened engine diverged: %v", q, urls)
		}
	}
}
