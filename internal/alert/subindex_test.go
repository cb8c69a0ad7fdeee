package alert

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"etap/internal/rank"
)

// linearMatch is the pre-index matcher: scan everything, keep what
// Matches. The golden reference every Candidates assertion compares
// against.
func linearMatch(ss *Subscriptions, ev rank.Event) []string {
	var out []string
	for _, s := range ss.List() {
		if s.Matches(ev) {
			out = append(out, s.ID)
		}
	}
	return out
}

// indexedMatch is the production path: prune with Candidates, confirm
// with Matches.
func indexedMatch(ss *Subscriptions, ev rank.Event) []string {
	var out []string
	for _, s := range ss.Candidates(ev.Company, ev.Driver) {
		if s.Matches(ev) {
			out = append(out, s.ID)
		}
	}
	return out
}

func TestCandidatesMatchLinearScan(t *testing.T) {
	// A seeded random subscription population over a skewed company
	// distribution, probed by events drawn from the same skew plus
	// corner cases. The indexed matcher must agree with the linear scan
	// exactly — IDs and order both.
	rng := rand.New(rand.NewSource(42))
	companies := []string{"Acme", "Globex", "Initech", "Umbrella", "Hooli", ""}
	drivers := []string{"mergers-acquisitions", "new-offices", "funding-rounds", ""}
	ss := NewSubscriptions()
	for i := 0; i < 500; i++ {
		// Zipf-ish skew: low indices dominate, mirroring a realistic
		// many-watchers-per-hot-company shape.
		c := companies[min2(rng.Intn(len(companies)), rng.Intn(len(companies)))]
		d := drivers[min2(rng.Intn(len(drivers)), rng.Intn(len(drivers)))]
		if _, err := ss.Add(Subscription{
			Company:    c,
			Driver:     d,
			MinScore:   float64(rng.Intn(10)) / 10,
			WebhookURL: fmt.Sprintf("http://hook-%d.example.com/h", i),
		}); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	events := []rank.Event{
		{Company: "Acme", Driver: "mergers-acquisitions", Score: 0.95},
		{Company: "Acme Inc.", Driver: "new-offices", Score: 0.55}, // alias form
		{Company: "Globex", Driver: "funding-rounds", Score: 0.05},
		{Company: "", Driver: "mergers-acquisitions", Score: 0.8}, // no company attributed
		{Company: "Nonesuch Corp", Driver: "new-offices", Score: 0.9},
		{Company: "", Driver: "", Score: 1.0},
	}
	for i := 0; i < 50; i++ {
		events = append(events, rank.Event{
			Company: companies[rng.Intn(len(companies))],
			Driver:  drivers[rng.Intn(len(drivers))],
			Score:   float64(rng.Intn(11)) / 10,
		})
	}
	for i, ev := range events {
		want := linearMatch(ss, ev)
		got := indexedMatch(ss, ev)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("event %d (%+v): indexed = %v, linear = %v", i, ev, got, want)
		}
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestCandidatesAfterDelete(t *testing.T) {
	ss := NewSubscriptions()
	a, _ := ss.Add(Subscription{Company: "Acme", WebhookURL: "http://a/h"})
	b, _ := ss.Add(Subscription{Company: "Acme", WebhookURL: "http://b/h"})
	ev := rank.Event{Company: "Acme", Score: 0.9}
	if got := indexedMatch(ss, ev); len(got) != 2 {
		t.Fatalf("before delete: %v", got)
	}
	if err := ss.Delete(a.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	got := indexedMatch(ss, ev)
	if len(got) != 1 || got[0] != b.ID {
		t.Fatalf("after delete: %v, want [%s]", got, b.ID)
	}
	// Deleting the last bucket member must drop the bucket entirely.
	if err := ss.Delete(b.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got := indexedMatch(ss, ev); len(got) != 0 {
		t.Fatalf("after deleting all: %v", got)
	}
}

func TestCandidatesRebuiltOnLoad(t *testing.T) {
	ss := NewSubscriptions()
	for i, c := range []string{"Acme", "Globex", "", "Acme"} {
		if _, err := ss.Add(Subscription{Company: c, WebhookURL: fmt.Sprintf("http://h%d/h", i)}); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	var buf bytes.Buffer
	if err := ss.WriteJSONL(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	loaded, err := ReadSubscriptions(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	ev := rank.Event{Company: "Acme", Score: 0.9}
	want := indexedMatch(ss, ev)
	got := indexedMatch(loaded, ev)
	if len(want) != 3 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("loaded index = %v, want %v (3 matches)", got, want)
	}
}

func TestCandidatesPreserveInsertionOrder(t *testing.T) {
	// Dispatch order followed List() before the index; Candidates must
	// keep it so switching matchers never reorders deliveries.
	ss := NewSubscriptions()
	ids := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		// Alternate buckets so order cannot fall out of bucket locality.
		c, d := "", ""
		switch i % 3 {
		case 0:
			c = "Acme"
		case 1:
			d = "new-offices"
		}
		s, err := ss.Add(Subscription{Company: c, Driver: d})
		if err != nil {
			t.Fatalf("add: %v", err)
		}
		ids = append(ids, s.ID)
	}
	got := indexedMatch(ss, rank.Event{Company: "Acme", Driver: "new-offices", Score: 1})
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("order = %v, want insertion order %v", got, ids)
	}
}

func TestCandidatesCanonicalizeCompanyAliases(t *testing.T) {
	ss := NewSubscriptions()
	s, _ := ss.Add(Subscription{Company: "Acme Inc.", WebhookURL: "http://a/h"})
	got := indexedMatch(ss, rank.Event{Company: "Acme Incorporated", Score: 0.9})
	if len(got) != 1 || got[0] != s.ID {
		t.Fatalf("alias lookup = %v, want [%s]", got, s.ID)
	}
}

func TestFanOutUsesIndexAndMatchesExactly(t *testing.T) {
	// Through the manager: only the pruned-and-confirmed subscriber is
	// delivered to, and the candidate histogram observes the probe.
	deliver := newScriptDeliverer()
	m, _ := newTestManager(t, Config{}, deliver)
	match, _ := m.Subscriptions().Add(Subscription{Company: "Acme", WebhookURL: "http://a/h"})
	if _, err := m.Subscriptions().Add(Subscription{Company: "Globex", WebhookURL: "http://b/h"}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if err := m.Enqueue(Document{URL: "http://n/1", Text: "Acme merger complete."}); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	flush(t, m)
	got := deliver.deliveredAlerts()
	if len(got) != 1 || got[0].Subscription != match.ID {
		t.Fatalf("delivered = %+v, want only %s", got, match.ID)
	}
	if n := m.met.candidates.Count(); n == 0 {
		t.Fatal("match-candidates histogram never observed")
	}
}

func TestFanOutCountsSSEMarshalErrors(t *testing.T) {
	// A NaN score is the one thing rank.Event can carry that
	// json.Marshal rejects; the frame is lost but the loss must be
	// counted, not swallowed.
	deliver := newScriptDeliverer()
	m, _ := newTestManager(t, Config{Log: quietTestLog()}, deliver)
	ev := rank.Event{Company: "Acme", Driver: "mergers-acquisitions", Score: math.NaN()}
	m.fanOut(context.Background(), ev, fixedClock(), ingestItem{acceptedAt: fixedClock()})
	if got := m.met.sseMarshal.Value(); got != 1 {
		t.Fatalf("sse marshal error counter = %d, want 1", got)
	}
}

// TestSubscriptionIndexModel drives Subscriptions with seeded random
// sequences of Add, Update, Delete and Candidates reads, keeping a
// model of the live set in insertion order beside it. Subscriptions
// use alias company forms, empty filters and tenant scopes. After every
// step List must equal the model, IDs, order and fields, and every
// read must match the linear scan of the model, IDs and order both.
func TestSubscriptionIndexModel(t *testing.T) {
	companies := []string{"Acme", "Acme Inc.", "ACME corp", "Globex", "Globex Corporation",
		"Initech", "Umbrella Ltd", "", "...", "Zürich Holdings"}
	drivers := []string{"mergers-acquisitions", "change-in-management", "revenue-growth", ""}
	tenants := []string{"", "", "north", "south"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ss := NewSubscriptions()
		var model []Subscription
		randomSub := func() Subscription {
			return Subscription{
				Company:    companies[rng.Intn(len(companies))],
				Driver:     drivers[rng.Intn(len(drivers))],
				MinScore:   float64(rng.Intn(12)) / 10, // 1.1 is invalid
				WebhookURL: fmt.Sprintf("http://hook-%d.example.com/h", rng.Intn(5)),
				Tenant:     tenants[rng.Intn(len(tenants))],
			}
		}
		pickID := func() string {
			if len(model) == 0 || rng.Intn(8) == 0 {
				return fmt.Sprintf("sub-%d", rng.Intn(400))
			}
			return model[rng.Intn(len(model))].ID
		}
		find := func(id string) int {
			for i, s := range model {
				if s.ID == id {
					return i
				}
			}
			return -1
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				s := randomSub()
				got, err := ss.Add(s)
				if (err != nil) != (s.Validate() != nil) {
					t.Fatalf("seed %d step %d: Add(%+v) = %v, validation %v", seed, step, s, err, s.Validate())
				}
				if err == nil {
					if got.Company != rank.Canonical(s.Company) {
						t.Fatalf("seed %d step %d: stored company %q for %q", seed, step, got.Company, s.Company)
					}
					model = append(model, got)
				}
			case op < 6:
				id, s := pickID(), randomSub()
				got, err := ss.Update(id, s)
				i := find(id)
				switch {
				case s.Validate() != nil:
					if err == nil {
						t.Fatalf("seed %d step %d: Update(%s, %+v) accepted an invalid subscription", seed, step, id, s)
					}
				case i < 0:
					if !errors.Is(err, ErrUnknownSubscription) {
						t.Fatalf("seed %d step %d: Update(%s) of a dead ID = %v", seed, step, id, err)
					}
				case err != nil:
					t.Fatalf("seed %d step %d: Update(%s): %v", seed, step, id, err)
				default:
					model[i] = got
				}
			case op < 7:
				id := pickID()
				err := ss.Delete(id)
				if i := find(id); i >= 0 {
					if err != nil {
						t.Fatalf("seed %d step %d: Delete(%s): %v", seed, step, id, err)
					}
					model = append(model[:i], model[i+1:]...)
				} else if !errors.Is(err, ErrUnknownSubscription) {
					t.Fatalf("seed %d step %d: Delete(%s) of a dead ID = %v", seed, step, id, err)
				}
			default:
				ev := rank.Event{
					Company: companies[rng.Intn(len(companies))],
					Driver:  drivers[rng.Intn(len(drivers))],
					Score:   float64(rng.Intn(11)) / 10,
				}
				var want []string
				for _, s := range model {
					if s.Matches(ev) {
						want = append(want, s.ID)
					}
				}
				if got := indexedMatch(ss, ev); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: event %+v: indexed %v, linear %v", seed, step, ev, got, want)
				}
			}
			if got := ss.List(); !reflect.DeepEqual(got, model) && len(got)+len(model) > 0 {
				t.Fatalf("seed %d step %d: List() = %+v, model %+v", seed, step, got, model)
			}
		}
	}
}
