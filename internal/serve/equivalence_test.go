package serve

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"testing"
	"time"

	"etap/internal/alert"
	"etap/internal/gather"
	"etap/internal/obs"
	"etap/internal/rank"
	"etap/internal/store"
)

// eventKey is the identity the streaming dedup layer assigns an event:
// driver plus canonical company plus text. Both runs are projected onto
// it so batch-side snippet-ID duplicates (the same syndicated sentence
// under two URLs) compare equal, exactly as the fingerprint treats them.
func eventKey(ev rank.Event) string {
	return ev.Driver + "\x00" + rank.Canonical(ev.Company) + "\x00" + ev.Text
}

func keyedScores(events []rank.Event) map[string]float64 {
	m := make(map[string]float64, len(events))
	for _, ev := range events {
		m[eventKey(ev)] = ev.Score
	}
	return m
}

// TestBatchStreamingEquivalence is the satellite golden comparison:
// replaying the corpus page by page through the ingest path must leave
// the lead store with the same ranked leads as one batch
// ExtractAllEvents run over the whole corpus — same events, same
// scores, same order by score.
func TestBatchStreamingEquivalence(t *testing.T) {
	_, sys := testServer(t) // trained system over the synthetic corpus
	w := sys.Web()
	pages := pagesOf(w)

	// Golden: one batch run over every page at the default threshold.
	batch := sys.ExtractAllEvents(pages, 0.5)
	if len(batch) == 0 {
		t.Fatal("batch extraction found no events")
	}
	batchStore := store.New()
	batchStore.Add(batch, time.Unix(1_750_000_000, 0))

	// Streaming: the same corpus, one document per /ingest request,
	// into a fresh server and store.
	srv := NewWithRegistry(nil, store.New(), obs.NewRegistry())
	m := alert.NewManager(sys, srv, w, alert.Config{
		Workers:   4,
		QueueSize: len(pages) + 8,
		Clock:     testClock,
		Registry:  obs.NewRegistry(),
		Deliverer: failDeliverer{},
		Retry:     gather.RetryConfig{MaxAttempts: 1, Sleep: func(time.Duration) {}, AttemptTimeout: -1},
	})
	m.Start(context.Background())
	defer m.Close()
	srv.AttachAlerts(m)
	for _, p := range pages {
		rec := postJSON(t, srv, "/ingest", alert.Document{URL: p.URL, Title: p.Title, Text: p.Text})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("ingest %s: %d", p.URL, rec.Code)
		}
	}
	mustFlush(t, m)

	streamed := srv.leads.Find(store.Query{})
	var streamedEvents []rank.Event
	for _, l := range streamed {
		streamedEvents = append(streamedEvents, l.Event)
	}

	// Same event set with the same scores, under the dedup identity.
	want, got := keyedScores(batch), keyedScores(streamedEvents)
	if len(got) != len(want) {
		t.Errorf("streaming found %d distinct events, batch %d", len(got), len(want))
	}
	for k, score := range want {
		gs, ok := got[k]
		if !ok {
			t.Errorf("batch event missing from stream: %q", k)
			continue
		}
		if gs != score {
			t.Errorf("score diverged for %q: batch %v, stream %v", k, score, gs)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("stream invented event: %q", k)
		}
	}

	// Same ranking: Find returns leads sorted by score, so the ordered
	// score sequences must match once batch-side duplicates collapse.
	var wantScores, gotScores []float64
	for _, s := range want {
		wantScores = append(wantScores, s)
	}
	for _, s := range got {
		gotScores = append(gotScores, s)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(wantScores)))
	sort.Sort(sort.Reverse(sort.Float64Slice(gotScores)))
	if fmt.Sprint(wantScores) != fmt.Sprint(gotScores) {
		t.Error("ranked score sequences diverged between batch and streaming runs")
	}
	for i := 1; i < len(streamed); i++ {
		if streamed[i-1].Score < streamed[i].Score {
			t.Fatalf("streamed leads out of rank order at %d", i)
		}
	}
}
