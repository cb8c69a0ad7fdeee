package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"etap/internal/rank"
)

var t0 = time.Unix(1_120_000_000, 0)

func sampleEvents() []rank.Event {
	return []rank.Event{
		{SnippetID: "d1#0", Driver: "ma", Company: "Acme Corp", Score: 0.9, Text: "Acme buys Widget."},
		{SnippetID: "d1#1", Driver: "ma", Company: "Widget Inc", Score: 0.7, Text: "Widget sold."},
		{SnippetID: "d2#0", Driver: "cim", Company: "Acme", Score: 0.8, Text: "Acme names CEO."},
	}
}

func TestAddAndDedup(t *testing.T) {
	s := New()
	if added := s.Add(sampleEvents(), t0); added != 3 {
		t.Fatalf("added = %d", added)
	}
	// Re-adding refreshes scores but adds nothing.
	again := sampleEvents()
	again[0].Score = 0.95
	if added := s.Add(again, t0.Add(time.Hour)); added != 0 {
		t.Fatalf("re-add created leads: %d", added)
	}
	leads := s.Find(Query{})
	if len(leads) != 3 {
		t.Fatalf("len = %d", len(leads))
	}
	if leads[0].Score != 0.95 {
		t.Errorf("score not refreshed: %v", leads[0].Score)
	}
	if leads[0].FirstSeen != t0.Unix() {
		t.Errorf("FirstSeen changed on re-add")
	}
}

func TestAddSkipsAnonymous(t *testing.T) {
	s := New()
	if added := s.Add([]rank.Event{{Driver: "ma"}}, t0); added != 0 {
		t.Fatalf("added id-less event")
	}
}

func TestFindFilters(t *testing.T) {
	s := New()
	s.Add(sampleEvents(), t0)

	if got := s.Find(Query{Driver: "ma"}); len(got) != 2 {
		t.Errorf("driver filter: %d", len(got))
	}
	// Canonical company match folds "Acme Corp" and "Acme".
	if got := s.Find(Query{Company: "ACME"}); len(got) != 2 {
		t.Errorf("company filter: %d", len(got))
	}
	if got := s.Find(Query{MinScore: 0.85}); len(got) != 1 || got[0].SnippetID != "d1#0" {
		t.Errorf("score filter: %+v", got)
	}
	s.MarkReviewed("d1#0")
	if got := s.Find(Query{Unreviewed: true}); len(got) != 2 {
		t.Errorf("unreviewed filter: %d", len(got))
	}
}

func TestFindSorted(t *testing.T) {
	s := New()
	s.Add(sampleEvents(), t0)
	got := s.Find(Query{})
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("not sorted: %+v", got)
		}
	}
}

func TestMarkReviewedMissing(t *testing.T) {
	s := New()
	if s.MarkReviewed("ghost") {
		t.Fatal("reviewed a phantom lead")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := New()
	s.Add(sampleEvents(), t0)
	s.MarkReviewed("d2#0")

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("lines = %d", lines)
	}
	s2, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("round trip len = %d", s2.Len())
	}
	got := s2.Find(Query{Driver: "cim"})
	if len(got) != 1 || !got[0].Reviewed || got[0].FirstSeen != t0.Unix() {
		t.Fatalf("lead state lost: %+v", got)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{broken\n")); err == nil {
		t.Error("no error for malformed JSON")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"firstSeen":1}` + "\n")); err == nil {
		t.Error("no error for lead without snippet ID")
	}
	// Blank lines are tolerated.
	s, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || s.Len() != 0 {
		t.Errorf("blank lines: %v %d", err, s.Len())
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "leads.jsonl")

	s := New()
	s.Add(sampleEvents(), t0)
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("loaded %d", s2.Len())
	}
	// Missing file -> empty store.
	s3, err := LoadFile(filepath.Join(dir, "absent.jsonl"))
	if err != nil || s3.Len() != 0 {
		t.Fatalf("missing file: %v %d", err, s3.Len())
	}
}

func TestSaveLoadRoundTripAfterReview(t *testing.T) {
	// The shutdown-checkpoint contract: MarkReviewed mutations written
	// with SaveFile come back intact from LoadFile — flags, scores,
	// FirstSeen, and insertion order all survive the round trip.
	dir := t.TempDir()
	path := filepath.Join(dir, "leads.jsonl")

	s := New()
	s.Add(sampleEvents(), t0)
	if !s.MarkReviewed("d1#0") || !s.MarkReviewed("d2#0") {
		t.Fatal("marking failed")
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Find(Query{})
	got := loaded.Find(Query{})
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lead %d diverged: %+v vs %+v", i, got[i], want[i])
		}
	}
	reviewed := map[string]bool{}
	for _, l := range got {
		reviewed[l.SnippetID] = l.Reviewed
	}
	if !reviewed["d1#0"] || !reviewed["d2#0"] || reviewed["d1#1"] {
		t.Fatalf("reviewed flags lost: %v", reviewed)
	}
	// A second save/load of the loaded store is stable (idempotent
	// persistence, no drift across restarts).
	if err := loaded.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got2 := reloaded.Find(Query{})
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("second round trip diverged at %d", i)
		}
	}
}

func TestIncrementalMergeAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "leads.jsonl")

	// Run 1.
	s, _ := LoadFile(path)
	s.Add(sampleEvents()[:2], t0)
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Run 2: overlapping events, one new.
	s, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	added := s.Add(sampleEvents(), t0.Add(24*time.Hour))
	if added != 1 {
		t.Fatalf("second run added %d, want 1", added)
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	final, _ := LoadFile(path)
	if final.Len() != 3 {
		t.Fatalf("final len = %d", final.Len())
	}
}

// TestWritesPublishCopies pins the snapshot contract: each write call
// publishes once, a published lead is never written again (reviews and
// refreshed scores install copies), and a refreshed score moves the
// lead to its new rank.
func TestWritesPublishCopies(t *testing.T) {
	s := New()
	if s.Add(nil, t0); s.Snapshot().Revision() != 0 {
		t.Fatal("an empty Add published")
	}
	s.Add(sampleEvents(), t0)
	before := s.Snapshot()
	if before.Revision() != 1 {
		t.Fatalf("revision %d after one Add", before.Revision())
	}
	if !s.MarkReviewed("d1#1") || s.Snapshot().Revision() != 2 {
		t.Fatalf("review published revision %d", s.Snapshot().Revision())
	}
	up := sampleEvents()[1] // d1#1, 0.7 → 0.99: now ranks first
	up.Score = 0.99
	s.Add([]rank.Event{up}, t0.Add(time.Hour))
	after := s.Snapshot()
	if after.Revision() != 3 {
		t.Fatalf("revision %d after a re-add", after.Revision())
	}
	var ids []string
	before.Walk(Query{}, func(l *Lead) bool {
		if l.Reviewed {
			t.Errorf("published lead %s changed after a review", l.SnippetID)
		}
		ids = append(ids, l.SnippetID)
		return true
	})
	if strings.Join(ids, " ") != "d1#0 d2#0 d1#1" {
		t.Fatalf("old snapshot order changed: %v", ids)
	}
	got := s.Find(Query{})
	if got[0].SnippetID != "d1#1" || got[0].Score != 0.99 || !got[0].Reviewed || got[0].FirstSeen != t0.Unix() {
		t.Fatalf("refreshed lead = %+v", got[0])
	}
	if ma := s.Find(Query{Driver: "ma"}); ma[0].SnippetID != "d1#1" {
		t.Fatalf("driver list not re-ranked: %+v", ma)
	}
}

// TestCompanyMRRMatchesRank checks the snapshot's one-pass Equation 2
// against rank.CompanyMRR over per-driver rank.ByScore lists, the way
// /companies derived it from a copy of the store, bit for bit.
func TestCompanyMRRMatchesRank(t *testing.T) {
	s := New()
	var evs []rank.Event
	companies := []string{"Acme Corp", "ACME", "Widget Inc", "widget", "Halcyon Systems", ""}
	for i := 0; i < 300; i++ {
		evs = append(evs, rank.Event{
			SnippetID: fmt.Sprintf("s%03d", (i*37)%300),
			Driver:    []string{"rg", "cim", "ma"}[i%3],
			Company:   companies[i%len(companies)],
			Score:     float64(i%11) / 10,
		})
	}
	s.Add(evs[:150], t0)
	s.Add(evs[150:], t0)
	byDriver := map[string][]rank.Event{}
	for _, l := range s.Find(Query{}) {
		byDriver[l.Driver] = append(byDriver[l.Driver], l.Event)
	}
	var ranked []rank.Ranked
	for _, d := range []string{"cim", "ma", "rg"} {
		ranked = append(ranked, rank.ByScore(byDriver[d])...)
	}
	want := rank.CompanyMRR(ranked)
	if got := s.Snapshot().CompanyMRR(); !reflect.DeepEqual(got, want) {
		t.Fatalf("CompanyMRR = %+v, want %+v", got, want)
	}
}
