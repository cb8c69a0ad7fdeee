// Package store persists ETAP's outputs: a lead store that accumulates
// extracted trigger events across runs with de-duplication, JSONL
// serialization for downstream CRM systems, and simple querying. The
// paper's sales representatives consume "a ranked list of trigger
// events"; a production deployment needs that list to survive restarts
// and to merge the output of repeated crawls.
//
// Readers never lock. Every write publishes a new immutable Snapshot
// that already holds the leads in ranked order, overall and per
// driver, so a read walks it in order and stops once it has enough.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"etap/internal/rank"
)

// Lead is a stored trigger event with bookkeeping.
type Lead struct {
	rank.Event
	// FirstSeen is when the event first entered the store (Unix
	// seconds; injected by the caller for determinism in tests).
	FirstSeen int64 `json:"firstSeen"`
	// Reviewed marks leads a domain specialist has validated (Section
	// 4: the ranking component "acts as a precursor to the analysis
	// task").
	Reviewed bool `json:"reviewed"`

	canon string // rank.Canonical(Company), set when the lead enters a store
}

// CanonicalCompany returns rank.Canonical(l.Company). A lead read from
// a Store carries it precomputed, so reads never canonicalize again.
func (l *Lead) CanonicalCompany() string {
	if l.canon == "" && l.Company != "" {
		return rank.Canonical(l.Company)
	}
	return l.canon
}

// compareLeads is Find's order: rank.ByScore's, score descending then
// snippet ID ascending. Snippet IDs are unique, so the order is total.
func compareLeads(a, b *Lead) int { return rank.CompareScore(&a.Event, &b.Event) }

// Snapshot is one published state of a Store. Nothing in it, the
// leads included, is written after it is published, so any number of
// goroutines may read it without a lock while writers publish the next.
type Snapshot struct {
	rev      uint64
	order    []*Lead            // insertion order, for WriteJSONL
	sorted   []*Lead            // every lead in Find's order
	byDriver map[string][]*Lead // each driver's leads in Find's order
	drivers  []string           // byDriver's keys, sorted

	mrrOnce sync.Once
	mrr     []rank.CompanyScore
}

// Store is an in-memory lead collection with JSONL persistence. It is
// safe for concurrent use: writers serialize on the store's mutex and
// each publishes one new Snapshot; readers load the current one.
type Store struct {
	mu    sync.Mutex
	index map[string]int // snippet ID → position in the current snapshot's order; guarded by mu
	snap  atomic.Pointer[Snapshot]
}

// New returns an empty store.
func New() *Store {
	s := &Store{index: make(map[string]int)}
	s.snap.Store(&Snapshot{byDriver: map[string][]*Lead{}})
	return s
}

// Snapshot returns the current published snapshot.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Len returns the number of stored leads.
func (s *Store) Len() int { return len(s.Snapshot().order) }

// Add inserts events, de-duplicating by snippet ID. Re-added events keep
// their original FirstSeen and Reviewed flags but refresh the score (a
// re-crawl may re-rank). It reports how many events were new. A
// non-empty call publishes one snapshot, even when it changes nothing,
// so the revision counts write calls.
func (s *Store) Add(events []rank.Event, now time.Time) int {
	if len(events) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.Snapshot()
	order := slices.Clone(cur.order)
	pending := map[string]*Lead{} // leads this call made, not yet published
	var fresh []*Lead
	stale := map[*Lead]bool{}
	added := 0
	for _, ev := range events {
		if ev.SnippetID == "" {
			continue
		}
		if l, ok := pending[ev.SnippetID]; ok {
			l.Score, l.Orientation = ev.Score, ev.Orientation
			continue
		}
		var l *Lead
		if i, ok := s.index[ev.SnippetID]; ok {
			old := order[i]
			cp := *old
			cp.Score, cp.Orientation = ev.Score, ev.Orientation
			l = &cp
			order[i] = l
			stale[old] = true
		} else {
			l = &Lead{Event: ev, FirstSeen: now.Unix(), canon: rank.Canonical(ev.Company)}
			s.index[ev.SnippetID] = len(order)
			order = append(order, l)
			added++
		}
		pending[ev.SnippetID] = l
		fresh = append(fresh, l)
	}
	s.snap.Store(cur.next(order, fresh, stale))
	return added
}

// MarkReviewed flags a lead as specialist-validated, publishing a
// snapshot that holds a reviewed copy of it.
func (s *Store) MarkReviewed(snippetID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[snippetID]
	if !ok {
		return false
	}
	cur := s.Snapshot()
	old := cur.order[i]
	cp := *old
	cp.Reviewed = true
	order := slices.Clone(cur.order)
	order[i] = &cp
	s.snap.Store(cur.next(order, []*Lead{&cp}, map[*Lead]bool{old: true}))
	return true
}

// next builds the snapshot that follows sn: order is the new insertion
// order, fresh the leads entering the ranked lists (in any order; next
// sorts them) and stale the leads leaving them. A lead's driver never
// changes, so only the drivers of fresh leads need new lists.
func (sn *Snapshot) next(order, fresh []*Lead, stale map[*Lead]bool) *Snapshot {
	slices.SortFunc(fresh, compareLeads)
	n := &Snapshot{
		rev:      sn.rev + 1,
		order:    order,
		sorted:   merge(sn.sorted, fresh, stale),
		byDriver: make(map[string][]*Lead, len(sn.byDriver)+1),
		drivers:  sn.drivers,
	}
	for d, list := range sn.byDriver {
		n.byDriver[d] = list
	}
	for len(fresh) > 0 {
		d := fresh[0].Driver
		var mine, rest []*Lead
		for _, l := range fresh {
			if l.Driver == d {
				mine = append(mine, l)
			} else {
				rest = append(rest, l)
			}
		}
		old, known := sn.byDriver[d]
		n.byDriver[d] = merge(old, mine, stale)
		if !known {
			n.drivers = append(slices.Clip(n.drivers), d)
			sort.Strings(n.drivers)
		}
		fresh = rest
	}
	return n
}

// merge returns old without its stale leads, merged with the sorted
// add, in Find's order. old is never written.
func merge(old, add []*Lead, stale map[*Lead]bool) []*Lead {
	out := make([]*Lead, 0, len(old)+len(add))
	for _, l := range old {
		if len(stale) > 0 && stale[l] {
			continue
		}
		for len(add) > 0 && compareLeads(add[0], l) < 0 {
			out = append(out, add[0])
			add = add[1:]
		}
		out = append(out, l)
	}
	return append(out, add...)
}

// Revision is the number of publishes up to and including this
// snapshot: an empty store starts at 0, every write call adds one, and
// ReadJSONL publishes once.
func (sn *Snapshot) Revision() uint64 { return sn.rev }

// Query filters the stored leads. Zero-valued fields match everything.
type Query struct {
	Driver     string
	Company    string // canonical company match
	MinScore   float64
	Unreviewed bool // only leads not yet reviewed
}

// Walk calls fn with each lead matching q, in Find's order, until fn
// returns false. It walks the driver's list when q names one, and stops
// at the first lead scoring under q.MinScore, since all later ones do
// too. The leads are shared by every reader and must not be modified.
func (sn *Snapshot) Walk(q Query, fn func(*Lead) bool) {
	list := sn.sorted
	if q.Driver != "" {
		list = sn.byDriver[q.Driver]
	}
	company := ""
	if q.Company != "" {
		company = rank.Canonical(q.Company)
	}
	for _, l := range list {
		if l.Score < q.MinScore {
			return
		}
		if q.Company != "" && l.canon != company {
			continue
		}
		if q.Unreviewed && l.Reviewed {
			continue
		}
		if !fn(l) {
			return
		}
	}
}

// Find returns matching leads sorted by descending score (ties by
// snippet ID): copies of the current snapshot's matches.
func (s *Store) Find(q Query) []Lead {
	var out []Lead
	s.Snapshot().Walk(q, func(l *Lead) bool {
		out = append(out, *l)
		return true
	})
	return out
}

// CompanyMRR returns the Equation 2 company ranking of the snapshot's
// leads: each driver's leads ranked in Find's order, drivers taken in
// name order, so equal snapshots give equal bytes. It is computed on
// first use and then shared; callers must not modify it.
func (sn *Snapshot) CompanyMRR() []rank.CompanyScore {
	sn.mrrOnce.Do(func() {
		var acc rank.MRRAccumulator
		for _, d := range sn.drivers {
			for i, l := range sn.byDriver[d] {
				acc.Add(l.Company, l.canon, i+1)
			}
		}
		sn.mrr = acc.Scores()
	})
	return sn.mrr
}

// writeJSONL streams every lead of the snapshot, in insertion order,
// one JSON object per line.
func (sn *Snapshot) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, l := range sn.order {
		if err := enc.Encode(l); err != nil {
			return fmt.Errorf("store: encoding lead %s: %w", l.SnippetID, err)
		}
	}
	return bw.Flush()
}

// WriteJSONL streams every lead, in insertion order, one JSON object per
// line.
func (s *Store) WriteJSONL(w io.Writer) error { return s.Snapshot().writeJSONL(w) }

// ReadJSONL loads leads from a JSONL stream into a new store. Duplicate
// snippet IDs keep the first occurrence. The store publishes once,
// after the last line.
func ReadJSONL(r io.Reader) (*Store, error) {
	s := New()
	s.mu.Lock()
	defer s.mu.Unlock()
	var order []*Lead
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l Lead
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("store: line %d: %w", line, err)
		}
		if l.SnippetID == "" {
			return nil, fmt.Errorf("store: line %d: lead without snippet ID", line)
		}
		if _, dup := s.index[l.SnippetID]; dup {
			continue
		}
		l.canon = rank.Canonical(l.Company)
		s.index[l.SnippetID] = len(order)
		order = append(order, &l)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: reading: %w", err)
	}
	s.snap.Store(s.Snapshot().next(order, slices.Clone(order), nil))
	return s, nil
}

// SaveFile writes the snapshot to path atomically (write + rename).
func (sn *Snapshot) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := sn.writeJSONL(f); err != nil {
		//etaplint:ignore error-swallowing -- best-effort cleanup on an already-failing path; the write error is what the caller needs
		f.Close()
		//etaplint:ignore error-swallowing -- best-effort cleanup on an already-failing path; the write error is what the caller needs
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		//etaplint:ignore error-swallowing -- best-effort cleanup on an already-failing path; the close error is what the caller needs
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// SaveFile writes the store to path atomically (write + rename).
func (s *Store) SaveFile(path string) error { return s.Snapshot().SaveFile(path) }

// LoadFile reads a store previously written with SaveFile. A missing
// file yields an empty store (first run).
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return New(), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}
