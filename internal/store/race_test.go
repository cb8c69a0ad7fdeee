package store

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"etap/internal/rank"
)

// checkSnapshot verifies a snapshot's invariants: the ranked list holds
// every lead once in Find's order, the driver lists partition it, each
// in Find's order, and the drivers are sorted.
func checkSnapshot(t *testing.T, sn *Snapshot) {
	t.Helper()
	if len(sn.sorted) != len(sn.order) {
		t.Fatalf("rev %d: %d ranked leads, %d stored", sn.rev, len(sn.sorted), len(sn.order))
	}
	for i := 1; i < len(sn.sorted); i++ {
		if compareLeads(sn.sorted[i-1], sn.sorted[i]) >= 0 {
			t.Fatalf("rev %d: ranked list out of order at %d", sn.rev, i)
		}
	}
	n := 0
	for i, d := range sn.drivers {
		if i > 0 && sn.drivers[i-1] >= d {
			t.Fatalf("rev %d: drivers unsorted: %v", sn.rev, sn.drivers)
		}
		list := sn.byDriver[d]
		for j, l := range list {
			if l.Driver != d || (j > 0 && compareLeads(list[j-1], l) >= 0) {
				t.Fatalf("rev %d: driver %s list broken at %d", sn.rev, d, j)
			}
		}
		n += len(list)
	}
	if n != len(sn.order) || len(sn.drivers) != len(sn.byDriver) {
		t.Fatalf("rev %d: driver lists hold %d of %d leads", sn.rev, n, len(sn.order))
	}
}

// TestSnapshotsUnderConcurrentWrites interleaves batched adds, re-adds
// that move scores, and reviews with readers that check every snapshot
// they load and every Find answer. Run it under -race (make race-reads).
func TestSnapshotsUnderConcurrentWrites(t *testing.T) {
	s := New()
	drivers := []string{"cim", "ma", "rg"}
	ev := func(i, round int) rank.Event {
		return rank.Event{
			SnippetID: fmt.Sprintf("d%04d#%d", i/3, i%3),
			Driver:    drivers[i%len(drivers)],
			Company:   fmt.Sprintf("Company %d Inc", i%17),
			Score:     float64((i*7+round*13)%40) / 40,
		}
	}
	const leads, rounds = 600, 30
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			var batch []rank.Event
			for i := r * leads / rounds; i < (r+1)*leads/rounds; i++ {
				batch = append(batch, ev(i, r))
			}
			for i := 0; i < r*leads/rounds; i += 7 {
				batch = append(batch, ev(i, r))
			}
			s.Add(batch, time.Unix(int64(r), 0))
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*5; r++ {
			s.MarkReviewed(fmt.Sprintf("d%04d#%d", r%200, r%3))
		}
	}()
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				checkSnapshot(t, s.Snapshot())
				q := Query{Driver: drivers[g], MinScore: 0.3, Unreviewed: g == 0}
				got := s.Find(q)
				for i, l := range got {
					if l.Driver != q.Driver || l.Score < q.MinScore || (q.Unreviewed && l.Reviewed) ||
						(i > 0 && compareLeads(&got[i-1], &got[i]) >= 0) {
						t.Errorf("Find(%+v) broke its contract at %d: %+v", q, i, l)
						return
					}
				}
				s.Snapshot().CompanyMRR()
			}
		}(g)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	final := s.Snapshot()
	checkSnapshot(t, final)
	if len(final.order) != leads {
		t.Fatalf("%d leads, want %d", len(final.order), leads)
	}
}
