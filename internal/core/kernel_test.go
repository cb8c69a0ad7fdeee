package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"etap/internal/corpus"
	"etap/internal/rank"
	"etap/internal/web"
)

// TestBatchAndStreamingShareSystem runs batch extractions, one per
// driver as batch callers make them, concurrently with streaming
// ExtractAllEvents calls over one page each, all on one System: the
// two paths share the kernel's scratch pool and the stash. Every call
// must return what it returns alone. Run it under the race detector:
//
//	go test -race -count=10 -run TestBatchAndStreamingShareSystem ./internal/core
func TestBatchAndStreamingShareSystem(t *testing.T) {
	f := newFixture(t, 55, Config{Seed: 55})
	for _, d := range corpus.Drivers {
		f.addDriver(t, d, 10)
	}
	pages := f.batchPages(t, 60)
	batchWant := make(map[string][]rank.Event)
	for _, d := range corpus.Drivers {
		batchWant[string(d)] = freshExtract(t, f.sys, string(d), pages, 0.5)
	}
	streamWant := make([][]rank.Event, len(pages))
	streamed := 0
	for i, p := range pages {
		streamWant[i] = f.sys.ExtractAllEvents([]*web.Page{p}, 0.5)
		streamed += len(streamWant[i])
	}
	if streamed == 0 {
		t.Fatal("no streamed events: the comparison proves nothing")
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for _, d := range corpus.Drivers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := f.sys.ExtractEventsParallel(string(d), pages, 0.5, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, batchWant[string(d)]) {
					t.Errorf("round %d, batch %s: %d events, want %d, or they differ",
						round, d, len(got), len(batchWant[string(d)]))
				}
			}()
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(pages); i += 2 {
					if got := f.sys.ExtractAllEvents([]*web.Page{pages[i]}, 0.5); !reflect.DeepEqual(got, streamWant[i]) {
						t.Errorf("round %d, page %d streamed: %d events, want %d, or they differ",
							round, i, len(got), len(streamWant[i]))
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestWarmExtractAllEventsAllocs bounds what a warmed streaming
// extraction of one page allocates, per event it returns. Annotation,
// abstraction and scoring write into the kernel's pooled scratch, so
// what remains is per page (the scorer, the snippets, their IDs), per
// event (the result) and per instance-valued feature name.
func TestWarmExtractAllEventsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	f := newFixture(t, 56, Config{Seed: 56, DisableMetrics: true})
	for _, d := range corpus.Drivers {
		f.addDriver(t, d, 10)
	}
	// The page with the most events among the first hundred.
	var page []*web.Page
	events := 0
	for _, p := range f.batchPages(t, 100) {
		if n := len(f.sys.ExtractAllEvents([]*web.Page{p}, 0.5)); n > events {
			page, events = []*web.Page{p}, n
		}
	}
	if events == 0 {
		t.Fatal("no page has an event")
	}
	allocs := testing.AllocsPerRun(50, func() { f.sys.ExtractAllEvents(page, 0.5) })
	t.Logf("%v allocations for %d events", allocs, events)
	if perEvent := allocs / float64(events); perEvent > maxAllocsPerEvent {
		t.Errorf("a warmed ExtractAllEvents allocated %v times for %d events (%.1f per event), want at most %d per event",
			allocs, events, perEvent, maxAllocsPerEvent)
	}
}

// maxAllocsPerEvent bounds TestWarmExtractAllEventsAllocs. Before the
// kernel wrote into pooled scratch, its page cost 152 allocations for 5
// events (30 per event); with it, 72.
const maxAllocsPerEvent = 20

// TestEventsShareTheirPageText checks that an extracted event's text is
// a slice of its page's text, not a copy: generated pages separate
// their sentences by single spaces.
func TestEventsShareTheirPageText(t *testing.T) {
	f := newFixture(t, 57, Config{Seed: 57})
	f.addDriver(t, corpus.ChangeInManagement, 10)
	pages := f.batchPages(t, 120)
	byURL := make(map[string]string, len(pages))
	for _, p := range pages {
		byURL[p.URL] = p.Text
	}
	events, err := f.sys.ExtractEvents(string(corpus.ChangeInManagement), pages, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events: the check proves nothing")
	}
	for _, ev := range events {
		text := byURL[ev.SnippetID[:strings.LastIndexByte(ev.SnippetID, '#')]]
		base := uintptr(unsafe.Pointer(unsafe.StringData(text)))
		at := uintptr(unsafe.Pointer(unsafe.StringData(ev.Text)))
		if at < base || at+uintptr(len(ev.Text)) > base+uintptr(len(text)) {
			t.Fatalf("event %s holds a copy of its snippet's text", ev.SnippetID)
		}
	}
}
