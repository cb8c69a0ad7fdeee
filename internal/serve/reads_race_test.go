package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"etap/internal/kb"
	"etap/internal/rank"
)

// readLead is the part of a served lead the concurrency checks read.
type readLead struct {
	rank.BlendRanked
	Reviewed bool        `json:"reviewed"`
	KB       *kb.Company `json:"kb"`
}

// checkRead decodes one read's answer and reports how it breaks its
// contract: sorted, honouring its filters and respecting top (and, for
// a tenant, the quota, the ICP, the floor and the ranks).
func (f *goldenFixture) checkRead(path string, code int, body []byte) string {
	if code != http.StatusOK {
		return fmt.Sprintf("status %d: %s", code, body)
	}
	u, err := url.Parse(path)
	if err != nil {
		return err.Error()
	}
	q := u.Query()
	top, err := strconv.Atoi(q.Get("top"))
	if err != nil { // the endpoints' defaults
		top = 50
		if u.Path == "/companies" {
			top = 20
		}
	}
	if u.Path == "/companies" {
		var cs []rank.CompanyScore
		if err := json.Unmarshal(body, &cs); err != nil {
			return err.Error()
		}
		for i := 1; i < len(cs); i++ {
			if cs[i].MRR > cs[i-1].MRR || (cs[i].MRR == cs[i-1].MRR && cs[i].Company <= cs[i-1].Company) {
				return fmt.Sprintf("companies out of order at %d", i)
			}
		}
		if len(cs) > top {
			return fmt.Sprintf("%d companies for top=%d", len(cs), top)
		}
		return ""
	}
	var ls []readLead
	if err := json.Unmarshal(body, &ls); err != nil {
		return err.Error()
	}
	min, _ := strconv.ParseFloat(q.Get("min"), 64)
	limit := top
	var floor float64
	tenantID := q.Get("tenant")
	var match func(*kb.Company) bool
	if tenantID != "" {
		p, _, err := f.reg.Get(tenantID)
		if err != nil {
			return err.Error()
		}
		if p.Quota > 0 && p.Quota < limit {
			limit = p.Quota
		}
		floor, match = p.MinScore, p.MatchCompany
	}
	if len(ls) > limit {
		return fmt.Sprintf("%d leads for a limit of %d", len(ls), limit)
	}
	for i, l := range ls {
		switch {
		case q.Get("driver") != "" && l.Driver != q.Get("driver"):
			return "lead of driver " + l.Driver
		case q.Get("company") != "" && !rank.SameCompany(q.Get("company"), l.Company):
			return "lead of company " + l.Company
		case l.Score < min:
			return fmt.Sprintf("score %g under min %g", l.Score, min)
		case q.Get("unreviewed") == "1" && l.Reviewed:
			return "reviewed lead " + l.SnippetID
		case match != nil && (!match(l.KB) || l.Blended < floor || l.Rank != i+1):
			return fmt.Sprintf("tenant lead %s: icp match %v, blended %g, rank %d at %d", l.SnippetID, match(l.KB), l.Blended, l.Rank, i+1)
		}
		if i == 0 {
			continue
		}
		prev := &ls[i-1]
		if match != nil && !rank.BlendBefore(&prev.BlendRanked, &l.BlendRanked) {
			return "tenant leads out of blended order at " + strconv.Itoa(i)
		}
		if match == nil && rank.CompareScore(&prev.Event, &l.Event) >= 0 {
			return "leads out of score order at " + strconv.Itoa(i)
		}
	}
	return ""
}

// TestLeadReadsConcurrentWithWrites runs streamed writes (new leads and
// re-adds that move scores), reviews, and reads of every lead endpoint
// at once, checking each answer against its request. Run it under
// -race (make race-reads): the read handlers take no lock, so the
// detector sees every reader against every writer.
func TestLeadReadsConcurrentWithWrites(t *testing.T) {
	f := newGoldenFixture(t)
	now := time.Unix(1_750_000_000, 0)
	f.srv.AddLeads(f.freshEvents(1500), now)
	stored := f.ids
	var reads []string
	for _, p := range f.goldenRequests() {
		if u, _ := url.Parse(p); u.Query().Get("top") != "1000" {
			reads = append(reads, p)
		}
	}
	// Writers draw from the fixture's generator, so they take turns.
	batches := make([][]rank.Event, 40)
	for i := range batches {
		batches[i] = append(f.freshEvents(3), f.readds(3)...)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, b := range batches {
			f.srv.AddLeads(b, now.Add(time.Duration(i)*time.Second))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			id := stored[(i*131)%len(stored)]
			req := httptest.NewRequest(http.MethodPost, "/leads/review?id="+url.QueryEscape(id), nil)
			rec := httptest.NewRecorder()
			f.srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("review of %s: %d", id, rec.Code)
			}
		}
	}()
	const readers = 3
	wg.Add(readers)
	for g := 0; g < readers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reads); i += readers {
				rec, body := get(t, f.srv, reads[i])
				if msg := f.checkRead(reads[i], rec.Code, body); msg != "" {
					t.Errorf("GET %s: %s", reads[i], msg)
				}
				if rec, _ := get(t, f.srv, "/healthz"); rec.Code != http.StatusOK {
					t.Errorf("healthz: %d", rec.Code)
				}
			}
		}(g)
	}
	wg.Wait()
}
