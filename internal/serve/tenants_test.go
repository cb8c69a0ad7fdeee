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

	"etap/internal/kb"
	"etap/internal/obs"
	"etap/internal/rank"
	"etap/internal/store"
	"etap/internal/tenant"
)

// tenantFixture is a server with a knowledge base and tenant registry
// attached, plus two companies of different industries and two leads
// each, so disjoint ICPs yield disjoint lead sets.
type tenantFixture struct {
	srv       *Server
	kb        *kb.KB
	reg       *tenant.Registry
	st        *store.Store
	c1, c2    kb.Company
	industry1 string
	industry2 string
}

func newTenantFixture(t *testing.T) *tenantFixture {
	t.Helper()
	k := kb.Generate(kb.Config{Seed: 42})
	companies := k.Companies()
	c1 := companies[0]
	var c2 kb.Company
	for _, c := range companies[1:] {
		if c.Industry != c1.Industry {
			c2 = c
			break
		}
	}
	if c2.Key == "" {
		t.Fatal("generated KB has a single industry; cannot build disjoint ICPs")
	}
	st := store.New()
	st.Add([]rank.Event{
		{SnippetID: "s#0", Driver: "mergers-acquisitions", Company: c1.Name, Score: 0.9, Text: c1.Name + " announced a merger."},
		{SnippetID: "s#1", Driver: "mergers-acquisitions", Company: c1.Name, Score: 0.7, Text: c1.Name + " is acquiring a rival."},
		{SnippetID: "s#2", Driver: "mergers-acquisitions", Company: c2.Name, Score: 0.8, Text: c2.Name + " announced a merger."},
		{SnippetID: "s#3", Driver: "mergers-acquisitions", Company: c2.Name, Score: 0.6, Text: c2.Name + " is acquiring a rival."},
	}, time.Unix(1_120_000_000, 0))
	reg := tenant.NewRegistry(tenant.Config{
		Clock:    func() time.Time { return time.Unix(1_700_000_000, 0) },
		Registry: obs.NewRegistry(),
	})
	srv := NewWithRegistry(nil, st, obs.NewRegistry())
	srv.AttachKB(k)
	srv.AttachTenants(reg)
	return &tenantFixture{
		srv: srv, kb: k, reg: reg, st: st,
		c1: c1, c2: c2, industry1: c1.Industry, industry2: c2.Industry,
	}
}

func sendJSON(t *testing.T, srv http.Handler, method, path string, v any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(method, path, &body)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestTenantCRUDOverHTTP(t *testing.T) {
	f := newTenantFixture(t)
	rec, body := sendJSON(t, f.srv, http.MethodPost, "/tenants",
		tenant.Profile{Name: "Alpha", Industries: []string{f.industry1}})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, body)
	}
	var created tenant.Profile
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID != "tenant-1" || created.Created == 0 {
		t.Fatalf("created = %+v", created)
	}

	rec, body = get(t, f.srv, "/tenants/"+created.ID)
	if rec.Code != http.StatusOK || !strings.Contains(string(body), "Alpha") {
		t.Fatalf("get: %d %s", rec.Code, body)
	}

	rec, _ = sendJSON(t, f.srv, http.MethodPut, "/tenants/"+created.ID,
		tenant.Profile{Name: "Alpha2", Industries: []string{f.industry2}})
	if rec.Code != http.StatusOK {
		t.Fatalf("update: %d", rec.Code)
	}
	rec, _ = sendJSON(t, f.srv, http.MethodPut, "/tenants/nope", tenant.Profile{})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("update unknown: %d", rec.Code)
	}
	rec, body = get(t, f.srv, "/tenants")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d", rec.Code)
	}
	var list []tenant.Profile
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "Alpha2" {
		t.Fatalf("list = %+v", list)
	}

	req := httptest.NewRequest(http.MethodDelete, "/tenants/"+created.ID, nil)
	rec = httptest.NewRecorder()
	f.srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	rec, _ = get(t, f.srv, "/tenants/"+created.ID)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", rec.Code)
	}

	// Invalid profiles are rejected at the API boundary.
	rec, _ = sendJSON(t, f.srv, http.MethodPost, "/tenants",
		tenant.Profile{SizeBuckets: []string{"gigantic"}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid profile: %d", rec.Code)
	}
}

func snippetIDs(t *testing.T, body []byte) []string {
	t.Helper()
	var leads []TenantLead
	if err := json.Unmarshal(body, &leads); err != nil {
		t.Fatalf("decoding tenant leads: %v\n%s", err, body)
	}
	ids := make([]string, 0, len(leads))
	for _, l := range leads {
		ids = append(ids, l.SnippetID)
	}
	return ids
}

// TestTenantLeadsDisjointAndRestart is the acceptance scenario: two
// tenants with disjoint ICPs over the same corpus receive disjoint,
// deterministically reproducible lead sets, and a restart that reloads
// the knowledge base, tenant registry, and lead store from disk serves
// byte-identical responses.
func TestTenantLeadsDisjointAndRestart(t *testing.T) {
	f := newTenantFixture(t)
	a, err := f.reg.Add(tenant.Profile{Name: "A", Industries: []string{f.industry1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.reg.Add(tenant.Profile{Name: "B", Industries: []string{f.industry2}})
	if err != nil {
		t.Fatal(err)
	}

	recA, bodyA := get(t, f.srv, "/leads?tenant="+a.ID)
	recB, bodyB := get(t, f.srv, "/leads?tenant="+b.ID)
	if recA.Code != http.StatusOK || recB.Code != http.StatusOK {
		t.Fatalf("status %d / %d", recA.Code, recB.Code)
	}
	idsA, idsB := snippetIDs(t, bodyA), snippetIDs(t, bodyB)
	if len(idsA) == 0 || len(idsB) == 0 {
		t.Fatalf("empty tenant lead sets: %v / %v", idsA, idsB)
	}
	inA := map[string]bool{}
	for _, id := range idsA {
		inA[id] = true
	}
	for _, id := range idsB {
		if inA[id] {
			t.Fatalf("lead %s served to both disjoint ICPs", id)
		}
	}

	// Same query again is deterministic.
	_, bodyA2 := get(t, f.srv, "/leads?tenant="+a.ID)
	if !bytes.Equal(bodyA, bodyA2) {
		t.Fatalf("repeated tenant query diverged:\n%s\nvs\n%s", bodyA, bodyA2)
	}

	// Restart: persist everything, reload from disk, compare responses.
	dir := t.TempDir()
	kbPath := filepath.Join(dir, "kb.jsonl")
	tenPath := filepath.Join(dir, "tenants.jsonl")
	leadPath := filepath.Join(dir, "leads.jsonl")
	if err := f.kb.SaveFile(kbPath); err != nil {
		t.Fatal(err)
	}
	if _, err := f.reg.SaveFile(tenPath); err != nil {
		t.Fatal(err)
	}
	if err := f.st.SaveFile(leadPath); err != nil {
		t.Fatal(err)
	}
	k2, err := kb.LoadFile(kbPath)
	if err != nil {
		t.Fatal(err)
	}
	reg2, err := tenant.LoadFile(tenPath, tenant.Config{
		Clock:    func() time.Time { return time.Unix(1_700_000_000, 0) },
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.LoadFile(leadPath)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewWithRegistry(nil, st2, obs.NewRegistry())
	srv2.AttachKB(k2)
	srv2.AttachTenants(reg2)
	_, bodyA3 := get(t, srv2, "/leads?tenant="+a.ID)
	_, bodyB3 := get(t, srv2, "/leads?tenant="+b.ID)
	if !bytes.Equal(bodyA, bodyA3) {
		t.Fatalf("tenant A response changed across restart:\n%s\nvs\n%s", bodyA, bodyA3)
	}
	if !bytes.Equal(bodyB, bodyB3) {
		t.Fatalf("tenant B response changed across restart:\n%s\nvs\n%s", bodyB, bodyB3)
	}
}

// TestTenantLeadsProfileUpdateInvalidates checks a tenant view can
// never outlive its ICP: after an update the next read reflects the
// new profile.
func TestTenantLeadsProfileUpdateInvalidates(t *testing.T) {
	f := newTenantFixture(t)
	a, err := f.reg.Add(tenant.Profile{Industries: []string{f.industry1}})
	if err != nil {
		t.Fatal(err)
	}
	_, body1 := get(t, f.srv, "/leads?tenant="+a.ID)
	ids1 := snippetIDs(t, body1)
	if _, err := f.reg.Update(a.ID, tenant.Profile{Industries: []string{f.industry2}}); err != nil {
		t.Fatal(err)
	}
	_, body2 := get(t, f.srv, "/leads?tenant="+a.ID)
	ids2 := snippetIDs(t, body2)
	if len(ids1) == 0 || len(ids2) == 0 {
		t.Fatalf("empty lead sets: %v / %v", ids1, ids2)
	}
	for _, id := range ids2 {
		for _, old := range ids1 {
			if id == old {
				t.Fatalf("stale lead %s served after ICP update", id)
			}
		}
	}
}

// TestTenantLeadsQuotaAndMinScore checks the profile quota clamps the
// response and the blended minScore floor drops weak leads.
func TestTenantLeadsQuotaAndMinScore(t *testing.T) {
	f := newTenantFixture(t)
	a, err := f.reg.Add(tenant.Profile{Industries: []string{f.industry1}, Quota: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, body := get(t, f.srv, "/leads?tenant="+a.ID)
	if ids := snippetIDs(t, body); len(ids) != 1 {
		t.Fatalf("quota 1 served %d leads: %v", len(ids), ids)
	}
	// A minScore above any achievable blend yields an empty list.
	strict, err := f.reg.Add(tenant.Profile{Industries: []string{f.industry1}, MinScore: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	_, body = get(t, f.srv, "/leads?tenant="+strict.ID)
	if ids := snippetIDs(t, body); len(ids) != 0 {
		t.Fatalf("minScore 0.99 served %v", ids)
	}
}

// TestTenantLeadsErrors pins the error contract: tenant filtering off
// is a 400, an unknown tenant a 404.
func TestTenantLeadsErrors(t *testing.T) {
	srv := NewWithRegistry(nil, store.New(), obs.NewRegistry())
	rec, _ := get(t, srv, "/leads?tenant=tenant-1")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("tenants not attached: %d", rec.Code)
	}
	f := newTenantFixture(t)
	rec, _ = get(t, f.srv, "/leads?tenant=nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d", rec.Code)
	}
}

// TestLeadsKBEnrichment checks the base /leads view carries each
// subject's knowledge-base record once a KB is attached.
func TestLeadsKBEnrichment(t *testing.T) {
	f := newTenantFixture(t)
	_, body := get(t, f.srv, "/leads")
	var out []struct {
		store.Lead
		KB *kb.Company `json:"kb"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d leads", len(out))
	}
	for _, l := range out {
		if l.KB == nil {
			t.Fatalf("lead %s missing KB record", l.SnippetID)
		}
		if want, _ := f.kb.Lookup(l.Company); want.Key != l.KB.Key {
			t.Fatalf("lead %s enriched with %s, want %s", l.SnippetID, l.KB.Key, want.Key)
		}
	}
}
