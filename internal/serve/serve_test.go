package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"etap/internal/core"
	"etap/internal/corpus"
	"etap/internal/rank"
	"etap/internal/store"
)

func testServer(t *testing.T) (*Server, *core.System) {
	t.Helper()
	gen := corpus.NewGenerator(corpus.Config{
		Seed: 401, RelevantPerDriver: 25, BackgroundDocs: 80,
		HardNegativePerDriver: 8, FamousEventDocs: 3,
	})
	w := core.BuildWeb(gen.World())
	sys := core.New(w, core.Config{Seed: 401, TopK: 50, NegativeCount: 500})
	var spec core.SalesDriver
	for _, sd := range core.DefaultDrivers() {
		if sd.ID == string(corpus.ChangeInManagement) {
			spec = sd
		}
	}
	if _, err := sys.AddDriver(spec, nil); err != nil {
		t.Fatal(err)
	}

	st := store.New()
	st.Add([]rank.Event{
		{SnippetID: "a#0", Driver: spec.ID, Company: "Acme Corp", Score: 0.95, Text: "Acme named a CEO."},
		{SnippetID: "a#1", Driver: spec.ID, Company: "Widget Inc", Score: 0.6, Text: "Widget promoted a CFO."},
		{SnippetID: "b#0", Driver: "other", Company: "Acme", Score: 0.8, Text: "Acme other event."},
	}, time.Unix(1_120_000_000, 0))
	return New(sys, st), sys
}

func get(t *testing.T, srv http.Handler, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	rec, body := get(t, srv, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" || out["leads"].(float64) != 3 {
		t.Fatalf("health = %v", out)
	}
}

func TestDrivers(t *testing.T) {
	srv, _ := testServer(t)
	_, body := get(t, srv, "/drivers")
	var drivers []string
	if err := json.Unmarshal(body, &drivers); err != nil {
		t.Fatal(err)
	}
	if len(drivers) != 1 || drivers[0] != string(corpus.ChangeInManagement) {
		t.Fatalf("drivers = %v", drivers)
	}
}

func TestLeadsFilters(t *testing.T) {
	srv, _ := testServer(t)
	_, body := get(t, srv, "/leads?driver="+string(corpus.ChangeInManagement)+"&min=0.9")
	var leads []store.Lead
	if err := json.Unmarshal(body, &leads); err != nil {
		t.Fatal(err)
	}
	if len(leads) != 1 || leads[0].SnippetID != "a#0" {
		t.Fatalf("leads = %+v", leads)
	}
	// Company filter is alias-resolved.
	_, body = get(t, srv, "/leads?company=ACME")
	if err := json.Unmarshal(body, &leads); err != nil {
		t.Fatal(err)
	}
	if len(leads) != 2 {
		t.Fatalf("alias filter: %+v", leads)
	}
}

func TestLeadsBadParams(t *testing.T) {
	srv, _ := testServer(t)
	if rec, _ := get(t, srv, "/leads?min=abc"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad min: %d", rec.Code)
	}
	if rec, _ := get(t, srv, "/leads?top=0"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad top: %d", rec.Code)
	}
}

func TestReviewFlow(t *testing.T) {
	srv, _ := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/leads/review?id=a%230", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("review status %d: %s", rec.Code, rec.Body)
	}
	_, body := get(t, srv, "/leads?unreviewed=1")
	var leads []store.Lead
	if err := json.Unmarshal(body, &leads); err != nil {
		t.Fatal(err)
	}
	for _, l := range leads {
		if l.SnippetID == "a#0" {
			t.Fatal("reviewed lead still listed as unreviewed")
		}
	}
	// Unknown lead -> 404; missing id -> 400.
	req = httptest.NewRequest(http.MethodPost, "/leads/review?id=ghost", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("ghost review: %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/leads/review", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing id: %d", rec.Code)
	}
}

func TestScoreEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	text := "Halcyon Systems appointed James Smith as CEO on Friday."
	rec, body := get(t, srv, "/score?driver="+string(corpus.ChangeInManagement)+
		"&text="+strings.ReplaceAll(text, " ", "+"))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["trigger"] != true {
		t.Fatalf("appointment snippet not a trigger: %v", out)
	}
	if rec, _ := get(t, srv, "/score?driver=ghost&text=x"); rec.Code != http.StatusNotFound {
		t.Errorf("ghost driver: %d", rec.Code)
	}
	if rec, _ := get(t, srv, "/score?driver=x"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing text: %d", rec.Code)
	}
}

func TestCompaniesEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	_, body := get(t, srv, "/companies?top=5")
	var scores []rank.CompanyScore
	if err := json.Unmarshal(body, &scores); err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 {
		t.Fatalf("companies = %+v", scores)
	}
	// Acme has events in two drivers (rank 1 in each) -> MRR 1.
	if rank.Canonical(scores[0].Company) != "acme" || scores[0].Events != 2 {
		t.Fatalf("top company = %+v", scores[0])
	}
}

// TestCompaniesStableAcrossRequests pins /companies to one answer per
// store: the company's display name (the first surface form the
// aggregation meets) and its reciprocal-rank sum must not depend on
// the order drivers come out of a map.
func TestCompaniesStableAcrossRequests(t *testing.T) {
	st := store.New()
	st.Add([]rank.Event{
		{SnippetID: "c#0", Driver: "change-in-management", Company: "Acme Corp", Score: 0.9, Text: "Acme Corp named a CEO."},
		{SnippetID: "c#1", Driver: "mergers-acquisitions", Company: "Acme", Score: 0.8, Text: "Acme bought Widget."},
		{SnippetID: "c#2", Driver: "revenue-growth", Company: "ACME Inc.", Score: 0.7, Text: "ACME Inc. revenue rose."},
		{SnippetID: "c#3", Driver: "revenue-growth", Company: "Widget", Score: 0.95, Text: "Widget revenue doubled."},
	}, time.Unix(1_120_000_000, 0))
	srv := New(nil, st)
	_, first := get(t, srv, "/companies")
	for i := 0; i < 200; i++ {
		if _, body := get(t, srv, "/companies"); !bytes.Equal(body, first) {
			t.Fatalf("GET %d answered %s; the first GET answered %s", i+2, body, first)
		}
	}
}

// paramStore is a lightweight store for handler-validation tests that
// don't need a trained system.
func paramStore() *store.Store {
	st := store.New()
	st.Add([]rank.Event{
		{SnippetID: "p#0", Driver: "ma", Company: "Acme", Score: 0.9, Text: "Acme buys Widget."},
		{SnippetID: "p#1", Driver: "ma", Company: "Widget", Score: 0.4, Text: "Widget sold."},
	}, time.Unix(1_120_000_000, 0))
	return st
}

func TestLeadsParamValidation(t *testing.T) {
	srv := New(nil, paramStore())
	cases := []struct {
		name string
		path string
		code int
		want int // leads expected in a 200 body; -1 = skip
	}{
		{"no params", "/leads", http.StatusOK, 2},
		{"good min", "/leads?min=0.5", http.StatusOK, 1},
		{"nan min", "/leads?min=NaN", http.StatusBadRequest, -1},
		{"inf min", "/leads?min=Inf", http.StatusBadRequest, -1},
		{"plus inf min", "/leads?min=%2BInf", http.StatusBadRequest, -1},
		{"minus inf min", "/leads?min=-Inf", http.StatusBadRequest, -1},
		{"garbage min", "/leads?min=abc", http.StatusBadRequest, -1},
		{"good top", "/leads?top=1", http.StatusOK, 1},
		{"max top", "/leads?top=1000", http.StatusOK, 2},
		{"zero top", "/leads?top=0", http.StatusBadRequest, -1},
		{"negative top", "/leads?top=-3", http.StatusBadRequest, -1},
		{"oversized top", "/leads?top=1001", http.StatusBadRequest, -1},
		{"garbage top", "/leads?top=ten", http.StatusBadRequest, -1},
		{"oversized companies top", "/companies?top=99999", http.StatusBadRequest, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, body := get(t, srv, tc.path)
			if rec.Code != tc.code {
				t.Fatalf("%s: code %d, want %d (%s)", tc.path, rec.Code, tc.code, body)
			}
			if tc.want < 0 {
				return
			}
			var leads []store.Lead
			if err := json.Unmarshal(body, &leads); err != nil {
				t.Fatal(err)
			}
			if len(leads) != tc.want {
				t.Fatalf("%s: %d leads, want %d", tc.path, len(leads), tc.want)
			}
		})
	}
}

func TestRevisionAndSaveLeads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "leads.jsonl")
	srv := New(nil, paramStore())
	if srv.Revision() != 0 {
		t.Fatalf("fresh revision = %d", srv.Revision())
	}
	// A failed review does not move the revision; a successful one does.
	req := httptest.NewRequest(http.MethodPost, "/leads/review?id=ghost", nil)
	srv.ServeHTTP(httptest.NewRecorder(), req)
	if srv.Revision() != 0 {
		t.Fatal("404 review bumped the revision")
	}
	req = httptest.NewRequest(http.MethodPost, "/leads/review?id=p%230", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || srv.Revision() != 1 {
		t.Fatalf("review: code %d revision %d", rec.Code, srv.Revision())
	}
	rev, err := srv.SaveLeads(path)
	if err != nil || rev != 1 {
		t.Fatalf("SaveLeads: rev %d err %v", rev, err)
	}
	loaded, err := store.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Find(store.Query{})
	if len(got) != 2 {
		t.Fatalf("saved %d leads", len(got))
	}
	for _, l := range got {
		if l.SnippetID == "p#0" && !l.Reviewed {
			t.Fatal("reviewed flag lost in checkpoint")
		}
	}
}

func TestNilSystem(t *testing.T) {
	srv := New(nil, nil)
	if rec, _ := get(t, srv, "/score?driver=d&text=t"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("score without system: %d", rec.Code)
	}
	rec, body := get(t, srv, "/drivers")
	if rec.Code != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Errorf("drivers without system: %d %s", rec.Code, body)
	}
}
