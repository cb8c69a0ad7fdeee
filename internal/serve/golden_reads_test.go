package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"etap/internal/kb"
	"etap/internal/obs"
	"etap/internal/rank"
	"etap/internal/store"
	"etap/internal/tenant"
)

// goldenReadsDigest is the SHA-256 of every answer goldenRequests
// receives across the phases of TestLeadReadsGolden. It was computed
// by the read path that copied and re-sorted the store on every
// request, so any change to the lead read path must reproduce those
// bytes exactly.
const goldenReadsDigest = "99bc55d68e6b3e92e6d1190564a29772bbef0dfcb03dd3eda31703c3dee0e5f2"

var goldenDrivers = []string{"change-in-management", "mergers-acquisitions", "revenue-growth"}

// goldenKeywords appear in lead text in mixed case, so tenant keyword
// matching sees every casing.
var goldenKeywords = []string{"Cloud", "ANALYTICS", "security", "Data", "supply", "platform"}

// goldenFixture is a lead store of a few thousand seeded leads served
// twice: once with a knowledge base and tenant registry attached, once
// bare. Scores are drawn from 51 values, so ties are everywhere.
type goldenFixture struct {
	srv, bare *Server
	reg       *tenant.Registry
	companies []kb.Company
	tenants   []string
	rng       *rand.Rand
	next      int // next fresh snippet number
	spread    int // leads name one of the first spread KB companies
	events    map[string]rank.Event
	ids       []string // snippet IDs in insertion order
}

func newGoldenFixture(t testing.TB) *goldenFixture {
	t.Helper()
	k := kb.Generate(kb.Config{Seed: 7})
	reg := tenant.NewRegistry(tenant.Config{
		Clock:    func() time.Time { return time.Unix(1_700_000_000, 0) },
		Registry: obs.NewRegistry(),
	})
	st := store.New()
	f := &goldenFixture{
		srv:       NewWithRegistry(nil, st, obs.NewRegistry()),
		bare:      NewWithRegistry(nil, st, obs.NewRegistry()),
		reg:       reg,
		companies: k.Companies(),
		rng:       rand.New(rand.NewSource(20061218)),
		spread:    60,
		events:    map[string]rank.Event{},
	}
	f.srv.AttachKB(k)
	f.srv.AttachTenants(reg)
	c := f.companies
	profiles := []tenant.Profile{
		{Name: "everyone"},
		{Name: "two industries", Industries: []string{c[0].Industry, c[3].Industry}},
		{Name: "sized", Industries: []string{c[1].Industry, c[5].Industry, c[8].Industry}, SizeBuckets: []string{"small", "Medium", "enterprise"}},
		{Name: "located", Locations: []string{c[2].HQ, c[4].HQ, strings.ToUpper(c[6].HQ)}},
		{Name: "keywords", Keywords: []string{"cloud", "Analytics"}},
		{Name: "quota", Industries: []string{c[0].Industry, c[1].Industry, c[2].Industry}, Quota: 7},
		{Name: "floor", Keywords: []string{"security", "data", "supply"}, MinScore: 0.75},
		{Name: "everything", Industries: []string{c[0].Industry, c[1].Industry, c[2].Industry, c[3].Industry},
			SizeBuckets: []string{"micro", "small", "medium", "large"}, Locations: []string{c[0].HQ, c[1].HQ, c[2].HQ, c[3].HQ, c[7].HQ},
			Keywords: []string{"platform", "cloud"}, Quota: 25, MinScore: 0.6},
		{Name: "high floor", MinScore: 0.99},
		{Name: "kb keywords", Industries: []string{" " + strings.ToUpper(c[9].Industry)}, Keywords: []string{"saas", "payments", "freight"}, Quota: 400},
	}
	for _, p := range profiles {
		stored, err := reg.Add(p)
		if err != nil {
			t.Fatal(err)
		}
		f.tenants = append(f.tenants, stored.ID)
	}
	return f
}

// spelling returns one of the surface forms the alias resolver folds.
func (f *goldenFixture) spelling(name string) string {
	switch f.rng.Intn(6) {
	case 0:
		return name + " Inc"
	case 1:
		return strings.ToUpper(name)
	case 2:
		return name + ", Inc."
	case 3:
		return strings.ToLower(name) + " corp"
	default:
		return name
	}
}

// freshEvents draws n new leads: most name a knowledge-base company in
// some spelling, some a company the KB does not know, a few none.
func (f *goldenFixture) freshEvents(n int) []rank.Event {
	out := make([]rank.Event, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("doc%05d#%d", f.next/3, f.next%3)
		f.next++
		var company string
		switch r := f.rng.Intn(20); {
		case r < 17:
			company = f.spelling(f.companies[f.rng.Intn(f.spread)].Name)
		case r < 19:
			company = fmt.Sprintf("Nowhere Widgets %d Ltd", f.rng.Intn(12))
		}
		text := company + " made news"
		for _, kw := range goldenKeywords {
			if f.rng.Intn(4) == 0 {
				text += " about " + kw
			}
		}
		ev := rank.Event{
			SnippetID:   id,
			Text:        text + ".",
			Driver:      goldenDrivers[f.rng.Intn(len(goldenDrivers))],
			Company:     company,
			Score:       float64(50+f.rng.Intn(51)) / 100,
			Orientation: float64(f.rng.Intn(21)-10) / 10,
		}
		f.events[id] = ev
		f.ids = append(f.ids, id)
		out = append(out, ev)
	}
	return out
}

// readds draws n re-adds of stored leads whose scores rise, fall or
// stay put; a re-add never changes anything but score and orientation.
func (f *goldenFixture) readds(n int) []rank.Event {
	out := make([]rank.Event, 0, n)
	for i := 0; i < n; i++ {
		ev := f.events[f.ids[f.rng.Intn(len(f.ids))]]
		switch f.rng.Intn(3) {
		case 0:
			ev.Score = float64(50+f.rng.Intn(51)) / 100
		case 1:
			ev.Score = ev.Score - 0.05
		}
		ev.Orientation = -ev.Orientation
		f.events[ev.SnippetID] = ev
		out = append(out, ev)
	}
	return out
}

// review marks n leads reviewed over HTTP, a few of them unknown.
func (f *goldenFixture) review(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := "ghost#0"
		if f.rng.Intn(10) > 0 {
			id = f.ids[f.rng.Intn(len(f.ids))]
		}
		req := httptest.NewRequest(http.MethodPost, "/leads/review?id="+url.QueryEscape(id), nil)
		rec := httptest.NewRecorder()
		f.srv.ServeHTTP(rec, req)
		if want := http.StatusOK; id == "ghost#0" {
			want = http.StatusNotFound
			if rec.Code != want {
				t.Fatalf("review %s: %d", id, rec.Code)
			}
		} else if rec.Code != want {
			t.Fatalf("review %s: %d", id, rec.Code)
		}
	}
}

// goldenRequests is the fixed request list: every /leads filter alone
// and combined, top=1 and top=1000, /companies at several tops, and
// tenant reads across every profile and query shape.
func (f *goldenFixture) goldenRequests() []string {
	c := f.companies
	companyForms := []string{c[0].Name, strings.ToUpper(c[1].Name) + " Inc.", strings.ToLower(c[2].Name) + " corp", "Nowhere Widgets 3", "No Such Company"}
	var reqs []string
	for _, top := range []string{"", "1", "7", "1000"} {
		for _, d := range append([]string{""}, goldenDrivers...) {
			q := url.Values{}
			if top != "" {
				q.Set("top", top)
			}
			if d != "" {
				q.Set("driver", d)
			}
			reqs = append(reqs, "/leads?"+q.Encode())
		}
	}
	for _, min := range []string{"0", "0.5", "0.7", "0.85", "0.95", "1", "1.5", "-1"} {
		reqs = append(reqs, "/leads?top=1000&min="+min, "/leads?top=40&unreviewed=1&min="+min)
	}
	for i, co := range companyForms {
		q := url.Values{"company": {co}, "top": {"1000"}}
		reqs = append(reqs, "/leads?"+q.Encode())
		q.Set("driver", goldenDrivers[i%len(goldenDrivers)])
		q.Set("min", "0.7")
		q.Set("unreviewed", "1")
		reqs = append(reqs, "/leads?"+q.Encode())
	}
	reqs = append(reqs, "/leads?driver=no-such-driver", "/leads?unreviewed=1&top=1000",
		"/leads?driver=revenue-growth&unreviewed=1&top=1")
	for _, top := range []string{"", "1", "5", "50", "1000"} {
		reqs = append(reqs, "/companies?top="+top)
	}
	shapes := []url.Values{
		{},
		{"top": {"1"}},
		{"top": {"1000"}},
		{"driver": {goldenDrivers[0]}, "top": {"50"}},
		{"min": {"0.7"}, "top": {"20"}},
		{"driver": {goldenDrivers[2]}, "min": {"0.5"}, "top": {"100"}},
		{"unreviewed": {"1"}, "top": {"300"}},
		{"company": {strings.ToUpper(c[0].Name)}, "top": {"1000"}},
		{"company": {c[3].Name + " Inc"}, "driver": {goldenDrivers[1]}, "unreviewed": {"1"}, "min": {"0.6"}},
	}
	for _, id := range f.tenants {
		for _, s := range shapes {
			q := url.Values{"tenant": {id}}
			for k, v := range s {
				q[k] = v
			}
			reqs = append(reqs, "/leads?"+q.Encode())
		}
	}
	return reqs
}

// answer folds every request's status and body into h.
func answer(t *testing.T, h hash.Hash, srv http.Handler, name string, reqs []string) {
	t.Helper()
	for _, path := range reqs {
		rec, body := get(t, srv, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s GET %s: %d %s", name, path, rec.Code, body)
		}
		fmt.Fprintf(h, "%s %s %d %d\n", name, path, rec.Code, len(body))
		h.Write(body)
	}
}

// TestLeadReadsGolden pins the bytes of every lead read endpoint over a
// store that keeps changing: batches of new leads, re-adds whose scores
// rise, fall and tie, and reviews land between request batches, so
// every answer after the first phase comes from a republished store.
func TestLeadReadsGolden(t *testing.T) {
	f := newGoldenFixture(t)
	now := time.Unix(1_750_000_000, 0)
	for i := 0; i < 5; i++ {
		f.srv.AddLeads(f.freshEvents(1000), now.Add(time.Duration(i)*time.Hour))
	}
	f.review(t, 40)
	h := sha256.New()
	bareReqs := []string{"/leads", "/leads?top=1000&min=0.9", "/leads?driver=no-such-driver", "/leads?company=No+Such+Company",
		"/companies", "/companies?top=1000"}
	for phase := 0; phase < 4; phase++ {
		answer(t, h, f.srv, fmt.Sprintf("phase %d", phase), f.goldenRequests())
		answer(t, h, f.bare, fmt.Sprintf("bare %d", phase), bareReqs)
		// Republish: one large mixed batch, then a trickle of small
		// ones the way streamed ingest adds them, with reviews between.
		batch := append(f.freshEvents(150), f.readds(300)...)
		batch = append(batch, rank.Event{Driver: goldenDrivers[0], Text: "no snippet ID"})
		f.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		f.srv.AddLeads(batch, now.Add(time.Duration(10+phase)*time.Hour))
		for i := 0; i < 15; i++ {
			small := append(f.freshEvents(f.rng.Intn(3)), f.readds(1+f.rng.Intn(3))...)
			f.srv.AddLeads(small, now.Add(time.Duration(20+phase)*time.Hour+time.Duration(i)*time.Minute))
			if i%5 == 0 {
				f.review(t, 3)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenReadsDigest {
		t.Fatalf("lead read answers changed: digest %s, pinned %s", got, goldenReadsDigest)
	}
}
