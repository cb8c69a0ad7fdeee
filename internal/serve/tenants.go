// Multi-tenant endpoints: the HTTP face of internal/tenant and
// internal/kb. Attaching a tenant registry mounts ICP CRUD and turns
// /leads?tenant= into a tenant-scoped recommender — the base lead list
// hard-filtered by the tenant's ICP over knowledge-base records, then
// re-ranked by the blend of rank score and ICP fit, floored by the
// profile's minScore and capped by its quota. Attaching a knowledge
// base additionally stamps every served lead with its subject's
// firmographic record. Tenant reads are recomputed on every request
// over the lead store's current snapshot; nothing is memoized.
//
//	GET    /tenants       list tenant ICP profiles
//	POST   /tenants       create a profile (ID assigned when omitted)
//	GET    /tenants/{id}  fetch one profile
//	PUT    /tenants/{id}  replace a profile's ICP (the next read uses it)
//	DELETE /tenants/{id}  delete a profile
package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"sort"

	"etap/internal/kb"
	"etap/internal/rank"
	"etap/internal/store"
	"etap/internal/tenant"
)

// AttachKB mounts a company knowledge base: every lead served by
// /leads gains a "kb" field with its subject's firmographic record,
// and tenant ICP filtering matches against those records. The KB is
// immutable; no locking is added.
func (s *Server) AttachKB(k *kb.KB) { s.kbase = k }

// AttachTenants mounts the tenant API over a registry. Call before
// serving; persistence (checkpointing the registry) stays with the
// caller.
func (s *Server) AttachTenants(reg *tenant.Registry) {
	s.tenants = reg
	s.tenantRequests = s.reg.Counter("etap_tenant_lead_requests_total",
		"Tenant-scoped /leads requests.")
	s.quotaClamps = s.reg.Counter("etap_tenant_quota_clamps_total",
		"Tenant lead responses truncated by the profile quota.")
	s.handle("GET", "/tenants", s.handleTenantList)
	s.handle("POST", "/tenants", s.handleTenantCreate)
	s.handle("GET", "/tenants/{id}", s.handleTenantGet)
	s.handle("PUT", "/tenants/{id}", s.handleTenantUpdate)
	s.handle("DELETE", "/tenants/{id}", s.handleTenantDelete)
}

func (s *Server) handleTenantList(w http.ResponseWriter, _ *http.Request) {
	profiles := s.tenants.List()
	if profiles == nil {
		profiles = []tenant.Profile{}
	}
	writeJSON(w, http.StatusOK, profiles)
}

func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	var p tenant.Profile
	body := http.MaxBytesReader(w, r.Body, maxIngestBody)
	if err := json.NewDecoder(body).Decode(&p); err != nil {
		writeError(w, http.StatusBadRequest, "bad profile: "+err.Error())
		return
	}
	stored, err := s.tenants.Add(p)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, stored)
}

func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	p, _, err := s.tenants.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) handleTenantUpdate(w http.ResponseWriter, r *http.Request) {
	var p tenant.Profile
	body := http.MaxBytesReader(w, r.Body, maxIngestBody)
	if err := json.NewDecoder(body).Decode(&p); err != nil {
		writeError(w, http.StatusBadRequest, "bad profile: "+err.Error())
		return
	}
	stored, err := s.tenants.Update(r.PathValue("id"), p)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, stored)
	case errors.Is(err, tenant.ErrUnknownTenant):
		writeError(w, http.StatusNotFound, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.tenants.Delete(id); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// TenantLead is one entry of a tenant-scoped /leads response: the
// stored lead plus its ICP fit, the blended score the order sorts by,
// its 1-based rank, and (with a knowledge base attached) the subject's
// firmographic record.
type TenantLead struct {
	store.Lead
	Rank    int         `json:"rank"`
	ICP     float64     `json:"icp"`
	Blended float64     `json:"blended"`
	KB      *kb.Company `json:"kb,omitempty"`
}

// lookupKB resolves a lead's company to its knowledge-base record
// through the canonical key the store computed when the lead entered;
// nil when no KB is attached or the company is unknown.
func (s *Server) lookupKB(l *store.Lead) *kb.Company {
	if s.kbase == nil {
		return nil
	}
	if c, ok := s.kbase.LookupKey(l.CanonicalCompany()); ok {
		return c
	}
	return nil
}

// tenantCandidate is one lead that passed a tenant's ICP filter and
// score floor, with its blend computed once.
type tenantCandidate struct {
	lead *store.Lead
	kb   *kb.Company
	br   rank.BlendRanked
}

// topBlended keeps the best k candidates in rank.BlendBefore's order:
// a binary heap whose root is the worst candidate kept.
type topBlended struct {
	k     int
	items []tenantCandidate
}

// worse reports whether item i ranks after item j.
func (t *topBlended) worse(i, j int) bool {
	return rank.BlendBefore(&t.items[j].br, &t.items[i].br)
}

// offer keeps c if it is among the best k seen so far.
func (t *topBlended) offer(c tenantCandidate) {
	if len(t.items) < t.k {
		t.items = append(t.items, c)
		for i := len(t.items) - 1; i > 0; {
			p := (i - 1) / 2
			if !t.worse(i, p) {
				break
			}
			t.items[i], t.items[p] = t.items[p], t.items[i]
			i = p
		}
		return
	}
	if !rank.BlendBefore(&c.br, &t.items[0].br) {
		return
	}
	t.items[0] = c
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(t.items) {
			return
		}
		if r := m + 1; r < len(t.items) && t.worse(r, m) {
			m = r
		}
		if !t.worse(m, i) {
			return
		}
		t.items[i], t.items[m] = t.items[m], t.items[i]
		i = m
	}
}

// handleTenantLeads serves /leads?tenant=: the base query and the
// tenant's hard ICP filter applied while walking the store snapshot,
// each candidate's blend computed once, the profile's minScore floor,
// and the best min(top, quota) kept in blended order, KB-enriched.
// Snippet IDs are unique, so the blended order is total and the kept
// leads are exactly the first ones a full sort would give.
func (s *Server) handleTenantLeads(w http.ResponseWriter, q url.Values, tenantID string, minScore float64, top int) {
	if s.tenants == nil {
		writeError(w, http.StatusBadRequest, "tenant filtering not enabled")
		return
	}
	s.tenantRequests.Inc()
	profile, _, err := s.tenants.Get(tenantID)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	limit := top
	if profile.Quota > 0 && profile.Quota < limit {
		limit = profile.Quota
	}
	best := topBlended{k: limit}
	matched := 0
	s.leads.Snapshot().Walk(baseQuery(q, minScore), func(l *store.Lead) bool {
		c := s.lookupKB(l)
		if !profile.MatchCompany(c) {
			return true
		}
		icp := profile.Score(c, l.Text)
		cand := tenantCandidate{lead: l, kb: c, br: rank.BlendRanked{
			Event: l.Event, ICP: icp, Blended: rank.Blend(l.Score, icp, rank.DefaultBlend),
		}}
		if cand.br.Blended < profile.MinScore {
			return true
		}
		matched++
		best.offer(cand)
		return true
	})
	if matched > limit && limit < top {
		s.quotaClamps.Inc()
	}
	sort.Slice(best.items, func(i, j int) bool { return rank.BlendBefore(&best.items[i].br, &best.items[j].br) })
	out := make([]TenantLead, 0, len(best.items))
	for i, c := range best.items {
		// Ranks are positions in the final tenant-visible list.
		out = append(out, TenantLead{Lead: *c.lead, Rank: i + 1, ICP: c.br.ICP, Blended: c.br.Blended, KB: c.kb})
	}
	writeJSON(w, http.StatusOK, out)
}

// enrichLeads wraps base /leads results with knowledge-base records
// when a KB is attached; without one the input is returned as-is, so
// single-tenant deployments see the original response shape.
func (s *Server) enrichLeads(results []*store.Lead) any {
	if s.kbase == nil {
		return results
	}
	type enriched struct {
		*store.Lead
		KB *kb.Company `json:"kb,omitempty"`
	}
	out := make([]enriched, 0, len(results))
	for _, l := range results {
		out = append(out, enriched{Lead: l, KB: s.lookupKB(l)})
	}
	return out
}
