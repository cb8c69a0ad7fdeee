// Package serve exposes a trained ETAP system and its lead store over
// HTTP — the interface the paper's screenshots (Figures 7 and 8) imply:
// sales representatives browse ranked trigger events, filter them, and
// mark them reviewed.
//
// Endpoints (all JSON unless noted):
//
//	GET  /drivers                      trained driver IDs
//	GET  /leads?driver=&company=&min=&unreviewed=1&top=&tenant=
//	POST /leads/review?id=<snippetID>  mark a lead reviewed
//	GET  /score?driver=&text=          classify one snippet
//	GET  /companies?top=               company MRR ranking from the store
//	GET  /healthz                      readiness: drivers, store size, uptime, runtime
//	GET  /metrics                      Prometheus text exposition of the registry
//	GET  /debug/vars                   JSON snapshot of the registry
//	GET  /debug/build                  build identity (version, go, VCS revision)
//	GET  /debug/traces                 recent per-document traces (AttachTracer)
//	GET  /debug/traces/{id}            one trace's full span tree (AttachTracer)
//
// With a tenant registry attached (AttachTenants), /tenants offers ICP
// profile CRUD and /leads?tenant= serves the tenant-scoped,
// ICP-filtered, blend-re-ranked view (see tenants.go). With a company
// knowledge base attached (AttachKB), served leads carry their
// subject's firmographic record.
//
// Every endpoint is instrumented: per-endpoint request counters,
// response-code counters, and latency histograms report into the
// server's obs.Registry (the process-wide obs.Default unless
// NewWithRegistry chose another).
package serve

import (
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"time"

	"etap/internal/alert"
	"etap/internal/core"
	"etap/internal/kb"
	"etap/internal/obs"
	"etap/internal/store"
	"etap/internal/tenant"
)

// Server wires a trained system and a lead store into an http.Handler.
// All handlers are safe for concurrent use. No handler takes a lock:
// reads walk the store's current snapshot, and writes go through the
// store, which serializes them itself.
type Server struct {
	sys *core.System

	leads   *store.Store
	baseRev uint64 // the store's revision when the server was built

	reg    *obs.Registry
	start  time.Time
	mux    *http.ServeMux
	alerts *alert.Manager // nil until AttachAlerts
	tracer *obs.Tracer    // nil until AttachTracer

	kbase   *kb.KB           // nil until AttachKB
	tenants *tenant.Registry // nil until AttachTenants

	tenantRequests *obs.Counter // tenant-scoped /leads requests
	quotaClamps    *obs.Counter // responses truncated by a profile quota
}

// New builds the server over the process-wide metrics registry. Either
// argument may be nil: a nil system disables /score and /drivers, a nil
// store starts empty.
func New(sys *core.System, leads *store.Store) *Server {
	return NewWithRegistry(sys, leads, nil)
}

// NewWithRegistry is New reporting into (and exposing at /metrics) a
// specific registry; nil means obs.Default.
func NewWithRegistry(sys *core.System, leads *store.Store, reg *obs.Registry) *Server {
	if leads == nil {
		leads = store.New()
	}
	if reg == nil {
		reg = obs.Default
	}
	//etaplint:ignore determinism -- metrics-only timing: the start time feeds the uptime gauge and /healthz uptime, never a lead or a ranking
	s := &Server{sys: sys, leads: leads, baseRev: leads.Snapshot().Revision(), reg: reg, start: time.Now(), mux: http.NewServeMux()}
	s.registerRuntimeMetrics()
	s.registerBuildInfo()
	s.handle("GET", "/healthz", s.handleHealth)
	s.handle("GET", "/drivers", s.handleDrivers)
	s.handle("GET", "/leads", s.handleLeads)
	s.handle("POST", "/leads/review", s.handleReview)
	s.handle("GET", "/score", s.handleScore)
	s.handle("GET", "/companies", s.handleCompanies)
	s.mux.HandleFunc("GET /metrics", s.reg.ServeMetrics)
	s.mux.HandleFunc("GET /debug/vars", s.reg.ServeVars)
	return s
}

// registerRuntimeMetrics publishes scrape-time runtime gauges. Get-or-
// create semantics make this idempotent across servers sharing a
// registry.
func (s *Server) registerRuntimeMetrics() {
	s.reg.GaugeFunc("etap_go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.GaugeFunc("etap_go_heap_alloc_bytes", "Heap bytes allocated and in use.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	s.reg.GaugeFunc("etap_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
}

// handle mounts an instrumented handler: one request counter and
// latency histogram per route pattern, plus a per-(route, code)
// response counter. Patterns are static, so label cardinality is
// bounded by the route table.
func (s *Server) handle(method, pattern string, h http.HandlerFunc) {
	requests := s.reg.Counter("etap_http_requests_total",
		"HTTP requests by route.", "path", pattern)
	latency := s.reg.Histogram("etap_http_request_duration_seconds",
		"HTTP request latency by route.", nil, "path", pattern)
	s.mux.HandleFunc(method+" "+pattern, func(w http.ResponseWriter, r *http.Request) {
		//etaplint:ignore determinism -- metrics-only timing: the timestamp feeds the request-latency histogram, never a response body
		start := time.Now()
		sw := NewStatusWriter(w)
		h(sw, r)
		requests.Inc()
		latency.ObserveSince(start)
		s.reg.Counter("etap_http_responses_total",
			"HTTP responses by route and status code.",
			"path", pattern, "code", strconv.Itoa(sw.Status())).Inc()
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Revision returns the lead-store mutation count since the server was
// built: it increments on every write call that reaches the store (a
// non-empty AddLeads, a successful review), so a checkpointer can skip
// saves when nothing changed.
func (s *Server) Revision() uint64 { return s.leads.Snapshot().Revision() - s.baseRev }

// SaveLeads checkpoints one lead-store snapshot to path (atomic
// write+rename) and returns the revision it was published at. Writers
// publish new snapshots meanwhile without waiting for the save.
func (s *Server) SaveLeads(path string) (uint64, error) {
	snap := s.leads.Snapshot()
	return snap.Revision() - s.baseRev, snap.SaveFile(path)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already sent, so all that can be done is
		// note the truncated body — typically the peer hung up.
		slog.Debug("serve: writing JSON response", "err", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// Health is the /healthz readiness document. With an alert manager
// attached it carries the streaming subsystem's load too, and Status
// degrades (with the response code) when that subsystem is unhealthy.
type Health struct {
	Status        string  `json:"status"`
	Leads         int     `json:"leads"`
	Drivers       int     `json:"drivers"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Goroutines    int     `json:"goroutines"`
	HeapAllocB    uint64  `json:"heap_alloc_bytes"`
	NumGC         uint32  `json:"num_gc"`
	// Alerts reports the streaming subsystem; absent without one.
	Alerts *alert.Health `json:"alerts,omitempty"`
	// Degraded lists why Status is "degraded" (see alert.Health).
	Degraded []string `json:"degraded,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	n := s.leads.Len()
	drivers := 0
	if s.sys != nil {
		drivers = len(s.sys.Drivers())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := Health{
		Status:        "ok",
		Leads:         n,
		Drivers:       drivers,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		HeapAllocB:    ms.HeapAlloc,
		NumGC:         ms.NumGC,
	}
	status := http.StatusOK
	if s.alerts != nil {
		ah := s.alerts.Health()
		h.Alerts = &ah
		if reasons := ah.Degraded(); len(reasons) > 0 {
			// Still serving — readiness probes should route traffic
			// away until the stream drains, hence 503 over 200.
			h.Status = "degraded"
			h.Degraded = reasons
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, h)
}

func (s *Server) handleDrivers(w http.ResponseWriter, _ *http.Request) {
	if s.sys == nil {
		writeJSON(w, http.StatusOK, []string{})
		return
	}
	drivers := s.sys.Drivers()
	sort.Strings(drivers)
	writeJSON(w, http.StatusOK, drivers)
}

// maxTop caps the top parameter on list endpoints: a request for more
// is a 400, not an unbounded response.
const maxTop = 1000

func (s *Server) handleLeads(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	minScore := 0.0
	if v := q.Get("min"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		// ParseFloat accepts "NaN" and "±Inf"; a NaN MinScore makes
		// every score comparison false and the filter match everything,
		// so reject non-finite values outright.
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			writeError(w, http.StatusBadRequest, "bad min: want a finite number")
			return
		}
		minScore = f
	}
	top := 50
	if v := q.Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxTop {
			writeError(w, http.StatusBadRequest, "bad top: want 1..1000")
			return
		}
		top = n
	}
	if tenantID := q.Get("tenant"); tenantID != "" {
		s.handleTenantLeads(w, q, tenantID, minScore, top)
		return
	}
	var results []*store.Lead
	s.leads.Snapshot().Walk(baseQuery(q, minScore), func(l *store.Lead) bool {
		results = append(results, l)
		return len(results) < top
	})
	writeJSON(w, http.StatusOK, s.enrichLeads(results))
}

// baseQuery is the store query /leads and /leads?tenant= share.
func baseQuery(q url.Values, minScore float64) store.Query {
	return store.Query{
		Driver:     q.Get("driver"),
		Company:    q.Get("company"),
		MinScore:   minScore,
		Unreviewed: q.Get("unreviewed") == "1",
	}
}

func (s *Server) handleReview(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "missing id")
		return
	}
	if !s.leads.MarkReviewed(id) {
		writeError(w, http.StatusNotFound, "unknown lead")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"reviewed": id})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if s.sys == nil {
		writeError(w, http.StatusServiceUnavailable, "no system attached")
		return
	}
	q := r.URL.Query()
	driver, text := q.Get("driver"), q.Get("text")
	if driver == "" || text == "" {
		writeError(w, http.StatusBadRequest, "missing driver or text")
		return
	}
	p, err := s.sys.Score(driver, text)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"driver": driver, "score": p, "trigger": p >= 0.5,
	})
}

func (s *Server) handleCompanies(w http.ResponseWriter, r *http.Request) {
	top := 20
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxTop {
			writeError(w, http.StatusBadRequest, "bad top: want 1..1000")
			return
		}
		top = n
	}
	// Equation 2 over every stored lead, ranked per driver; the
	// snapshot computes it once and every later read shares it.
	scores := s.leads.Snapshot().CompanyMRR()
	if len(scores) > top {
		scores = scores[:top]
	}
	writeJSON(w, http.StatusOK, scores)
}
