package core

import (
	"etap/internal/par"
	"etap/internal/rank"
	"etap/internal/snippet"
	"etap/internal/web"
)

// ExtractEventsParallel is ExtractEvents spread over workers goroutines
// through par.For: pages are scored concurrently, which matters when
// ETAP processes a full crawl. The result is identical for any worker
// count — events arrive in (page, snippet) order regardless of
// scheduling. workers <= 0 uses GOMAXPROCS; one worker scores the pages
// in order on the caller's goroutine.
//
// When metrics are enabled, the etap_extract_queue_depth gauge tracks
// pages enqueued but not yet claimed and etap_extract_workers_busy
// tracks workers mid-page — the pair that shows whether a slow run is
// starved for workers (depth high, busy pegged) or for input.
func (s *System) ExtractEventsParallel(driverID string, pages []*web.Page, threshold float64, workers int) ([]rank.Event, error) {
	td, ok := s.drivers[driverID]
	if !ok {
		return nil, ErrUnknownDriver
	}
	if threshold <= 0 {
		threshold = 0.5
	}
	m := s.met
	if m != nil {
		m.runs.Inc()
		m.queueDepth.Add(int64(len(pages)))
	}
	gen := snippet.Generator{N: s.cfg.SnippetN}
	perPage := make([][]rank.Event, len(pages))
	par.For(workers, len(pages), func(i int) {
		if m != nil {
			m.queueDepth.Dec()
			m.workersBusy.Inc()
		}
		perPage[i] = s.scoreSnippets(td, driverID, s.annotatePage(gen, pages[i]), threshold)
		if m != nil {
			m.workersBusy.Dec()
		}
	})
	var out []rank.Event
	for _, events := range perPage {
		out = append(out, events...)
	}
	return out, nil
}
