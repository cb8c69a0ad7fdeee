package core

import (
	"slices"
	"sync"

	"etap/internal/par"
	"etap/internal/rank"
	"etap/internal/web"
)

// ExtractEventsParallel is ExtractEvents spread over workers goroutines
// through par.For: pages are scored concurrently, which matters when
// ETAP processes a full crawl. The result is identical for any worker
// count — events arrive in (page, snippet) order regardless of
// scheduling. workers <= 0 uses GOMAXPROCS; one worker scores the pages
// in order on the caller's goroutine.
//
// One pass takes each page through the scoring kernel once, for every
// trained driver, since callers extract one batch for each driver in
// turn. The call returns driverID's events and stashes the other
// drivers' on the System; a later call for one of them over the same
// pages and threshold takes its events from the stash instead of
// annotating again. The same pages means the same slice contents — each
// page pointer, URL and Text equal to the stashed pass's. A taken entry
// leaves the stash, any other call recomputes the whole batch and
// replaces it, and a System with one driver stashes nothing. A caller
// that trains several drivers but extracts only one pays for scoring
// them all.
//
// When metrics are enabled, the etap_extract_queue_depth gauge tracks
// pages enqueued but not yet claimed and etap_extract_workers_busy
// tracks workers mid-page — the pair that shows whether a slow run is
// starved for workers (depth high, busy pegged) or for input. A call
// answered from the stash observes no stage.
func (s *System) ExtractEventsParallel(driverID string, pages []*web.Page, threshold float64, workers int) ([]rank.Event, error) {
	if _, ok := s.drivers[driverID]; !ok {
		return nil, ErrUnknownDriver
	}
	if threshold <= 0 {
		threshold = 0.5
	}
	m := s.met
	if m != nil {
		m.runs.Inc()
	}
	if events, ok := s.stash.take(driverID, pages, threshold); ok {
		return events, nil
	}
	if m != nil {
		m.queueDepth.Add(int64(len(pages)))
	}
	sc := s.newScorer()
	perPage := make([][]rank.Event, len(pages)) // every driver's, in (snippet, driver) order
	par.For(workers, len(pages), func(i int) {
		if m != nil {
			m.queueDepth.Dec()
			m.workersBusy.Inc()
		}
		w := getScratch(sc)
		s.scorePage(sc, w, pages[i], threshold)
		if len(w.events) > 0 {
			perPage[i] = slices.Clone(w.events)
		}
		w.release()
		if m != nil {
			m.workersBusy.Dec()
		}
	})
	var out []rank.Event
	others := make(map[string][]rank.Event, len(sc.drivers)-1)
	for _, td := range sc.drivers {
		var events []rank.Event
		for _, page := range perPage {
			events = appendDriverEvents(events, page, td.spec.ID)
		}
		if td.spec.ID == driverID {
			out = events
		} else {
			others[td.spec.ID] = events
		}
	}
	s.stash.put(pages, threshold, others)
	return out, nil
}

// batchStash holds the events of the last batch pass for the drivers
// that have not yet asked for them (see ExtractEventsParallel). It
// keeps events rather than annotations: a few thousand events are
// cheap, a whole batch's annotated snippets are not. Drivers are
// add-only — AddDriver and ImportDriver reject a duplicate ID — so an
// entry cannot go stale through a model change; a driver added after
// the pass has no entry and recomputes.
type batchStash struct {
	mu        sync.Mutex
	pages     []*web.Page // a copy of the pass's slice
	keys      []pageKey   // each page's URL and Text when it was scored
	threshold float64
	events    map[string][]rank.Event // by driver ID
}

// pageKey is what extraction reads from a page; the strings share the
// page's bytes.
type pageKey struct{ url, text string }

// take removes and returns driverID's stashed events when pages and
// threshold are those of the stashed pass. The stash empties once its
// last entry is taken.
func (b *batchStash) take(driverID string, pages []*web.Page, threshold float64) ([]rank.Event, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	events, ok := b.events[driverID]
	if !ok || threshold != b.threshold || len(pages) != len(b.pages) {
		return nil, false
	}
	for i, p := range pages {
		if p != b.pages[i] || p.URL != b.keys[i].url || p.Text != b.keys[i].text {
			return nil, false
		}
	}
	delete(b.events, driverID)
	if len(b.events) == 0 {
		b.pages, b.keys, b.events = nil, nil, nil
	}
	return events, true
}

// put replaces the stash with one pass's events for the drivers other
// than the caller's; with none, it empties the stash.
func (b *batchStash) put(pages []*web.Page, threshold float64, events map[string][]rank.Event) {
	var keys []pageKey
	if len(events) == 0 {
		pages, events = nil, nil
	} else {
		pages = slices.Clone(pages)
		keys = make([]pageKey, len(pages))
		for i, p := range pages {
			keys[i] = pageKey{p.URL, p.Text}
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pages, b.keys, b.threshold, b.events = pages, keys, threshold, events
}
