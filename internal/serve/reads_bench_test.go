package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"etap/internal/kb"
	"etap/internal/rank"
	"etap/internal/tenant"
)

// discardWriter is a ResponseWriter that drops the body, so a
// benchmark counts the handler's allocations and not a recorder's.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkLeadReads measures the three lead read endpoints over about
// 9,000 seeded leads, a knowledge base and 50 tenants, with the query
// mix the leads workload draws from. The _after_write variants re-add
// one lead before every read, the way streamed ingest keeps changing
// the store, so each read also pays whatever a write costs the next
// read.
func BenchmarkLeadReads(b *testing.B) {
	f := newGoldenFixture(b)
	f.spread = len(f.companies)
	now := time.Unix(1_750_000_000, 0)
	for i := 0; i < 9; i++ {
		f.srv.AddLeads(f.freshEvents(1000), now)
	}
	rng := rand.New(rand.NewSource(5))
	tenants := benchTenants(b, f, rng, 50)
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var leads, tenantReads, companies []*http.Request
	for i := 0; i < 64; i++ {
		q := url.Values{}
		if rng.Intn(2) == 0 {
			q.Set("driver", pick(goldenDrivers))
		}
		if rng.Intn(10) < 3 {
			q.Set("company", f.spelling(f.companies[rng.Intn(len(f.companies))].Name))
		}
		q.Set("min", pick([]string{"0", "0.5", "0.7", "0.9"}))
		q.Set("top", pick([]string{"10", "50", "200"}))
		if rng.Intn(10) == 0 {
			q.Set("unreviewed", "1")
		}
		leads = append(leads, httptest.NewRequest(http.MethodGet, "/leads?"+q.Encode(), nil))

		shapes := []url.Values{
			{"top": {"20"}},
			{"driver": {goldenDrivers[0]}, "top": {"50"}},
			{"min": {"0.7"}, "top": {"20"}},
			{"driver": {goldenDrivers[2]}, "min": {"0.5"}, "top": {"100"}},
		}
		tq := url.Values{"tenant": {pick(tenants)}}
		for k, v := range shapes[rng.Intn(len(shapes))] {
			tq[k] = v
		}
		tenantReads = append(tenantReads, httptest.NewRequest(http.MethodGet, "/leads?"+tq.Encode(), nil))
		companies = append(companies, httptest.NewRequest(http.MethodGet, "/companies?top="+pick([]string{"10", "20", "50"}), nil))
	}
	readds := f.readds(1024)
	run := func(name string, reqs []*http.Request, write bool) {
		b.Run(name, func(b *testing.B) {
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if write {
					f.srv.AddLeads([]rank.Event{readds[i%len(readds)]}, now)
				}
				f.srv.ServeHTTP(w, reqs[i%len(reqs)])
			}
		})
	}
	run("leads", leads, false)
	run("leads_tenant", tenantReads, false)
	run("leads_tenant_after_write", tenantReads, true)
	run("companies", companies, false)
	run("companies_after_write", companies, true)
}

// benchTenants registers n tenant profiles drawn the way the leads
// workload draws its own.
func benchTenants(b *testing.B, f *goldenFixture, rng *rand.Rand, n int) []string {
	var hqs []string
	seen := map[string]bool{}
	for _, c := range f.companies {
		if !seen[c.HQ] {
			seen[c.HQ] = true
			hqs = append(hqs, c.HQ)
		}
	}
	some := func(pool []string, k int) []string {
		var out []string
		for _, i := range rng.Perm(len(pool))[:k] {
			out = append(out, pool[i])
		}
		return out
	}
	keywords := []string{"cloud", "analytics", "security", "data", "services", "platform", "network", "supply"}
	var ids []string
	for i := 0; i < n; i++ {
		p := tenant.Profile{
			Name:       fmt.Sprintf("bench tenant %d", i),
			Industries: some(kb.Industries, 2+rng.Intn(4)),
			Keywords:   some(keywords, rng.Intn(3)),
			MinScore:   0.3 * rng.Float64(),
		}
		if rng.Intn(3) == 0 {
			p.SizeBuckets = some(kb.SizeBuckets, 2+rng.Intn(3))
		}
		if rng.Intn(5) == 0 {
			p.Locations = some(hqs, 1+rng.Intn(len(hqs)/2))
		}
		if rng.Intn(4) == 0 {
			p.Quota = 10 + rng.Intn(40)
		}
		stored, err := f.reg.Add(p)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, stored.ID)
	}
	return ids
}
