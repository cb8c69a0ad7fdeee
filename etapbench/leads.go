package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"etap/internal/corpus"
	"etap/internal/rank"
	"etap/internal/store"
)

type leadsSizes struct {
	world   corpus.Config
	trickle float64 // ingest documents per second on the write connection
	warm    float64
	tenants int
	setups  int
}

func (b *bench) leadsSizes() leadsSizes {
	if b.opts.smoke {
		return leadsSizes{world: corpus.Config{Seed: etapdSeed}, trickle: 10, warm: 0.2, tenants: 5, setups: 1}
	}
	// Seven times the default world: about 6,400 pages yielding on the
	// order of 10⁴ leads from the batch pass, small enough that even a
	// slowed machine completes the 1,000 reads a p99 needs.
	return leadsSizes{
		world: corpus.Config{Seed: etapdSeed, RelevantPerDriver: 840, HardNegativePerDriver: 280,
			BackgroundDocs: 2800, FamousEventDocs: 56},
		trickle: 20, warm: 2, tenants: 50, setups: 3,
	}
}

// read is one pre-built read request and what its answer must honour.
type read struct {
	kind   string // leads, leads_tenant, companies, score, review
	method string
	url    string // path and query
	q      url.Values
}

// runLeads is sales reps browsing while news streams in: one
// connection issues closed-loop reads over a store filled by etapd's
// -extract pass, the other sends an open-loop trickle of documents.
func runLeads(b *bench) error {
	sz := b.leadsSizes()
	n := int(sz.trickle * (sz.warm + b.opts.seconds))
	bodies, err := ingestBodies(streamDocs(b.opts.seed, n, "leads"))
	if err != nil {
		return err
	}
	due := schedule(n, sz.trickle)
	cfg := daemonConfig{world: sz.world, extract: true, dir: filepath.Join(b.tmp, "leads")}
	d, err := b.start(cfg)
	if err != nil {
		return err
	}
	defer d.close()
	client := newClient()
	defer client.CloseIdleConnections()
	tenantIDs, err := createTenants(client, d, rand.New(rand.NewSource(layoutSeed)), sz.tenants)
	if err != nil {
		return err
	}
	reads := readMix(d, rand.New(rand.NewSource(b.opts.seed)), tenantIDs)

	ver := newVerifier(b.rep, d)
	win := b.startWindow(d, sz.warm)
	t0 := win.t0
	var trickle []sent
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		trickle = openLoop(t0, due, 1, func(i int) (int, error) {
			code, _, err := do(client, http.MethodPost, d.url+"/ingest", bodies[i])
			return code, err
		})
	}()
	warm := win.warm
	end := warm + time.Duration(b.opts.seconds*float64(time.Second))
	time.Sleep(time.Until(t0))
	var lat []float64
	var at []time.Duration
	for i := 0; ; i++ {
		start := time.Since(t0)
		if start >= end {
			break
		}
		r := reads[i%len(reads)]
		code, body, err := do(client, r.method, d.url+r.url, nil)
		stop := time.Since(t0)
		if start >= warm {
			lat = append(lat, ms(stop-start))
			at = append(at, start)
		}
		ver.check(r, code, body, err)
	}
	measured := time.Since(t0) - warm
	wg.Wait()
	if err := d.drain(60 * time.Second); err != nil {
		return fmt.Errorf("draining the alert pipeline: %w", err)
	}
	stats := b.endWindow(d, win)
	ver.close()
	var ack, late []float64
	accepted := 0
	for i, s := range trickle {
		b.rep.attempted++
		if s.err != nil || s.status != http.StatusAccepted {
			b.rep.fail("POST /ingest #%d: status %d err %v", i, s.status, s.err)
			continue
		}
		accepted++
		if s.due >= warm {
			ack = append(ack, ms(s.end-s.due))
			late = append(late, ms(s.start-s.due))
		}
	}

	b.rep.set("p50_ms", must(quantile(lat, 0.5)), "ms", len(lat))
	b.rep.setP99(lat, at, warm, b.opts.seconds)
	b.rep.set("ops_per_s", float64(len(lat))/measured.Seconds(), "1/s", len(lat))
	b.rep.set("cpu_ms_per_op", ratio(stats.cpu.Seconds()*1000, float64(ver.reads)), "ms", ver.reads)
	b.rep.timing("read_ms", "ms", lat)
	b.rep.note("leads: %d reads checked, %d leads in the store after the run, %d trickle documents",
		ver.reads, d.store.Len(), n)
	b.rep.timing("ack_ms", "ms", ack)
	b.rep.timing("loadgen.late_ms", "ms", late)
	reportRuntime(b.rep, stats, ver.reads)
	if b.opts.trace {
		h := b.hooks
		// The trickle takes the ingest path: its layers are timed as
		// ingest's are, from far fewer documents.
		h.reportIngest(b.rep, stats, accepted)
		reportCore(b.rep, d, streamDocs(b.opts.seed, n, "leads"))
		for _, kind := range []string{"leads", "leads_tenant", "companies", "score", "review"} {
			b.rep.timing("serve.read_ms."+kind, "ms", h.get("serve.read_ms."+kind+"_ms"))
			sizes := h.get("serve.read_bytes." + kind)
			b.rep.set("serve.read_bytes."+kind, mean(sizes), "bytes", len(sizes))
		}
		h.reportStore(b.rep, d, stats)
		win.tog.reportOverhead(b.rep, lat, at, warm)
	}
	return b.finish(d, cfg, sz.setups, false)
}

// readMix builds the closed-loop read sequence: /leads with varied
// filters, /leads?tenant= over every tenant in four query shapes (the
// tenant cache holds all of them), /companies, /score and 2% POST
// /leads/review.
func readMix(d *daemon, rng *rand.Rand, tenantIDs []string) []read {
	p := readPools{tenants: tenantIDs}
	p.drivers = d.sys.Drivers()
	sort.Strings(p.drivers)
	seen := map[string]bool{}
	for _, l := range d.store.Find(store.Query{}) {
		if c := rank.Canonical(l.Company); c != "" && !seen[c] {
			seen[c] = true
			p.companies = append(p.companies, l.Company)
		}
		p.ids = append(p.ids, l.SnippetID)
	}
	for _, doc := range d.docs[:200] {
		for _, s := range doc.Sentences {
			p.sentences = append(p.sentences, s.Text)
		}
	}
	p.shapes = []url.Values{
		{"top": {"20"}},
		{"driver": {p.drivers[0]}, "top": {"50"}},
		{"min": {"0.7"}, "top": {"20"}},
		{"driver": {p.drivers[len(p.drivers)-1]}, "min": {"0.5"}, "top": {"100"}},
	}
	var block []string
	for _, m := range readBlock {
		for i := 0; i < m.n; i++ {
			block = append(block, m.kind)
		}
	}
	// The loop cycles through this many reads; they are built up front.
	const n = 5000
	out := make([]read, 0, n)
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			out = append(out, p.read(kind, rng))
		}
	}
	return out
}

// readBlock is the read mix: every 100 consecutive reads hold exactly
// these counts, in a seeded order, so the share of expensive reads does
// not drift with the seed. No source describes how often sales reps
// open each view, so the split is an assumption, derived from measured
// costs: the three views that do this workload's work — /leads
// (store.Find), /leads?tenant= (tenant, rank.ByBlend) and /companies
// (rank.CompanyMRR) — each take an equal share of the server's time,
// at the mean handler times a traced run measured (6.3, 10.1 and
// 21.3 ms), so a given speed-up of any of them moves the workload's
// figures alike. Reviews take the 2% the workload specifies; /score
// (classification, 0.09 ms) takes the same 2%.
var readBlock = []struct {
	kind string
	n    int
}{{"leads", 50}, {"leads_tenant", 31}, {"companies", 15}, {"score", 2}, {"review", 2}}

// readPools are the values reads draw their parameters from.
type readPools struct {
	drivers, companies, ids, sentences, tenants []string
	shapes                                      []url.Values // tenant query shapes
}

// read draws the parameters of one read of the given kind.
func (p readPools) read(kind string, rng *rand.Rand) read {
	mk := func(method, path string, q url.Values) read {
		return read{kind: kind, method: method, url: path + "?" + q.Encode(), q: q}
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	switch kind {
	case "leads":
		q := url.Values{}
		if rng.Intn(2) == 0 {
			q.Set("driver", pick(p.drivers))
		}
		if rng.Intn(10) < 3 && len(p.companies) > 0 {
			q.Set("company", pick(p.companies))
		}
		q.Set("min", pick([]string{"0", "0.5", "0.7", "0.9"}))
		q.Set("top", pick([]string{"10", "50", "200"}))
		if rng.Intn(10) == 0 {
			q.Set("unreviewed", "1")
		}
		return mk(http.MethodGet, "/leads", q)
	case "leads_tenant":
		q := url.Values{}
		for k, v := range p.shapes[rng.Intn(len(p.shapes))] {
			q[k] = v
		}
		q.Set("tenant", pick(p.tenants))
		return mk(http.MethodGet, "/leads", q)
	case "companies":
		return mk(http.MethodGet, "/companies", url.Values{"top": {pick([]string{"10", "20", "50"})}})
	case "score":
		return mk(http.MethodGet, "/score", url.Values{"driver": {pick(p.drivers)}, "text": {pick(p.sentences)}})
	default:
		return mk(http.MethodPost, "/leads/review", url.Values{"id": {pick(p.ids)}})
	}
}

// verifier checks every read's answer on its own goroutine, so
// decoding responses stays off the read loop's critical path.
type verifier struct {
	rep   *report
	d     *daemon
	ch    chan checkItem
	done  chan struct{}
	mu    sync.Mutex
	reads int
}

type checkItem struct {
	r    read
	code int
	body []byte
	err  error
}

func newVerifier(rep *report, d *daemon) *verifier {
	// Buffered so a slow check does not stall the read loop; 64
	// responses bound the memory held for checking.
	v := &verifier{rep: rep, d: d, ch: make(chan checkItem, 64), done: make(chan struct{})}
	go func() {
		defer close(v.done)
		for it := range v.ch {
			msg := v.verify(it)
			v.mu.Lock()
			v.reads++
			v.rep.attempted++
			if msg != "" {
				v.rep.fail("%s %s: %s", it.r.method, it.r.url, msg)
			}
			v.mu.Unlock()
		}
	}()
	return v
}

func (v *verifier) check(r read, code int, body []byte, err error) {
	v.ch <- checkItem{r, code, body, err}
}

func (v *verifier) close() {
	close(v.ch)
	<-v.done
}

// servedLead is the part of a /leads entry the checks read.
type servedLead struct {
	SnippetID string
	Driver    string
	Company   string
	Score     float64
	Reviewed  bool    `json:"reviewed"`
	Rank      int     `json:"rank"`
	Blended   float64 `json:"blended"`
}

// verify returns why an answer is wrong, "" when it honours its
// request.
func (v *verifier) verify(it checkItem) string {
	if it.err != nil {
		return it.err.Error()
	}
	if it.code != http.StatusOK {
		return fmt.Sprintf("status %d", it.code)
	}
	q := it.r.q
	switch it.r.kind {
	case "leads", "leads_tenant":
		var ls []servedLead
		if err := json.Unmarshal(it.body, &ls); err != nil {
			return err.Error()
		}
		return v.verifyLeads(it.r.kind, q, ls)
	case "companies":
		var cs []rank.CompanyScore
		if err := json.Unmarshal(it.body, &cs); err != nil {
			return err.Error()
		}
		top, _ := strconv.Atoi(q.Get("top"))
		if len(cs) > top {
			return fmt.Sprintf("%d companies for top=%d", len(cs), top)
		}
		for i := 1; i < len(cs); i++ {
			if cs[i].MRR > cs[i-1].MRR {
				return "companies not in descending MRR order"
			}
		}
	case "score":
		var s struct {
			Score   float64 `json:"score"`
			Trigger bool    `json:"trigger"`
		}
		if err := json.Unmarshal(it.body, &s); err != nil {
			return err.Error()
		}
		if s.Score < 0 || s.Score > 1 || s.Trigger != (s.Score >= 0.5) {
			return fmt.Sprintf("score %g trigger %t", s.Score, s.Trigger)
		}
	case "review":
		if !strings.Contains(string(it.body), q.Get("id")) {
			return "review answer does not name the lead"
		}
	}
	return ""
}

func (v *verifier) verifyLeads(kind string, q url.Values, ls []servedLead) string {
	top, _ := strconv.Atoi(q.Get("top"))
	minScore, _ := strconv.ParseFloat(q.Get("min"), 64)
	limit := top
	var icp func(servedLead) bool
	profileMin := 0.0
	if kind == "leads_tenant" {
		p, _, err := v.d.tenants.Get(q.Get("tenant"))
		if err != nil {
			return err.Error()
		}
		if p.Quota > 0 && p.Quota < limit {
			limit = p.Quota
		}
		profileMin = p.MinScore
		icp = func(l servedLead) bool {
			c, ok := v.d.kb.Lookup(l.Company)
			if !ok {
				c = nil
			}
			return p.MatchCompany(c)
		}
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
		case l.Score < minScore:
			return fmt.Sprintf("lead score %g below min %g", l.Score, minScore)
		case q.Get("unreviewed") == "1" && l.Reviewed:
			return "reviewed lead in an unreviewed query"
		case icp != nil && !icp(l):
			return "lead outside the tenant ICP: " + l.Company
		case icp != nil && l.Blended < profileMin:
			return fmt.Sprintf("blended %g below the profile floor %g", l.Blended, profileMin)
		case icp != nil && l.Rank != i+1:
			return fmt.Sprintf("rank %d at position %d", l.Rank, i+1)
		}
		if i == 0 {
			continue
		}
		prev := ls[i-1]
		if icp != nil {
			if l.Blended > prev.Blended ||
				(l.Blended == prev.Blended && (l.Score > prev.Score || (l.Score == prev.Score && l.SnippetID < prev.SnippetID))) {
				return "tenant leads not in blended order"
			}
		} else if l.Score > prev.Score || (l.Score == prev.Score && l.SnippetID < prev.SnippetID) {
			return "leads not in score order"
		}
	}
	return ""
}
