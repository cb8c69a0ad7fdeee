package snippet

import (
	"strings"
	"testing"
	"testing/quick"
)

const sixSentences = "One deal closed. Two mergers failed. Three firms grew. Four boards met. Five chiefs resigned. Six offers landed."

func TestSplitDefaultN(t *testing.T) {
	g := Generator{}
	got := g.Split("d1", sixSentences)
	if len(got) != 2 {
		t.Fatalf("got %d snippets, want 2: %+v", len(got), got)
	}
	if got[0].SentFrom != 0 || got[0].SentTo != 3 {
		t.Errorf("first window = [%d,%d), want [0,3)", got[0].SentFrom, got[0].SentTo)
	}
	if got[1].SentFrom != 3 || got[1].SentTo != 6 {
		t.Errorf("second window = [%d,%d), want [3,6)", got[1].SentFrom, got[1].SentTo)
	}
}

func TestSplitTrailingShortWindow(t *testing.T) {
	g := Generator{N: 4}
	got := g.Split("d1", sixSentences)
	if len(got) != 2 {
		t.Fatalf("got %d snippets, want 2", len(got))
	}
	if got[1].SentTo-got[1].SentFrom != 2 {
		t.Errorf("trailing window size = %d, want 2", got[1].SentTo-got[1].SentFrom)
	}
}

func TestSplitOverlapping(t *testing.T) {
	g := Generator{N: 3, Stride: 1}
	got := g.Split("d1", sixSentences)
	if len(got) != 4 {
		t.Fatalf("got %d snippets, want 4 (windows 0-3,1-4,2-5,3-6)", len(got))
	}
	for i, s := range got {
		if s.SentFrom != i {
			t.Errorf("window %d starts at %d", i, s.SentFrom)
		}
	}
}

func TestSplitIDsAndProvenance(t *testing.T) {
	g := Generator{}
	got := g.Split("doc-7", sixSentences)
	if got[0].ID != "doc-7#0" || got[1].ID != "doc-7#1" {
		t.Errorf("ids = %q, %q", got[0].ID, got[1].ID)
	}
	for _, s := range got {
		if s.DocID != "doc-7" {
			t.Errorf("DocID = %q", s.DocID)
		}
	}
}

func TestSplitByteOffsets(t *testing.T) {
	g := Generator{}
	for _, s := range g.Split("d", sixSentences) {
		sub := sixSentences[s.Start:s.End]
		if !strings.HasPrefix(sub, strings.SplitN(s.Text, " ", 2)[0]) {
			t.Errorf("span [%d,%d) = %q does not match %q", s.Start, s.End, sub, s.Text)
		}
	}
}

func TestSplitEmptyDocument(t *testing.T) {
	g := Generator{}
	if got := g.Split("d", ""); got != nil {
		t.Errorf("empty doc: got %+v", got)
	}
}

func TestSplitSingleSentence(t *testing.T) {
	g := Generator{}
	got := g.Split("d", "Only one sentence here.")
	if len(got) != 1 || got[0].Text != "Only one sentence here." {
		t.Fatalf("got %+v", got)
	}
}

// Property: every sentence index is covered, windows are in order, and no
// window exceeds N sentences.
func TestSplitPropertyCoverage(t *testing.T) {
	g := Generator{N: 3}
	f := func(raw string) bool {
		snips := g.Split("d", raw)
		last := 0
		for _, s := range snips {
			if s.SentFrom != last || s.SentTo <= s.SentFrom || s.SentTo-s.SentFrom > 3 {
				return false
			}
			last = s.SentTo
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSplit(b *testing.B) {
	b.ReportAllocs()
	g := Generator{}
	doc := strings.Repeat(sixSentences+" ", 20)
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Split("d", doc)
	}
}
