package core

import (
	"fmt"
	"testing"
	"unsafe"

	"etap/internal/corpus"
)

// TestBuildWebEngineReopen covers the persistent build path end to
// end: with IndexDir set, BuildWebEngine writes segments on first
// build, ranks identically to the memory-only build, and a second build
// over the same directory re-opens the committed segments (no
// re-indexing — memtables stay empty) while still serving the same
// results over the rebuilt page table.
func TestBuildWebEngineReopen(t *testing.T) {
	docs := corpus.NewGenerator(corpus.Config{
		Seed: 93, RelevantPerDriver: 10, BackgroundDocs: 30,
		HardNegativePerDriver: 3, FamousEventDocs: 1,
	}).World()
	queries := []string{"merger", `"joint venture"`, "acquisition", "revenue growth"}

	mem := BuildWeb(docs)
	golden := make(map[string]string, len(queries))
	for _, q := range queries {
		hits := mem.Search(q, 10)
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
			t.Errorf("query %q: segment build diverged from memory-only: %v", q, urls)
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

// The pages BuildWebEngine stores share their text with the generated
// documents, whichever engine backs the web: the world's text is held
// once.
func TestBuildWebEngineSharesDocumentText(t *testing.T) {
	docs := corpus.NewGenerator(corpus.Config{
		Seed: 94, RelevantPerDriver: 5, BackgroundDocs: 10,
		HardNegativePerDriver: 2, FamousEventDocs: 1,
	}).World()
	for name, cfg := range map[string]Config{"memory": {}, "segments": {IndexDir: t.TempDir()}} {
		w, err := BuildWebEngine(docs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range docs {
			d := &docs[i]
			p, ok := w.Page(d.URL)
			if !ok {
				t.Fatalf("%s: page %s missing", name, d.URL)
			}
			if p.Text != d.Text() {
				t.Fatalf("%s: page %s text differs from its document", name, d.URL)
			}
			if unsafe.StringData(p.Text) != unsafe.StringData(d.Sentences[0].Text) {
				t.Fatalf("%s: page %s holds a copy of its document's text", name, d.URL)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}
