package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etap/internal/alert"
	"etap/internal/corpus"
	"etap/internal/pos"
	"etap/internal/rank"
	"etap/internal/snippet"
	"etap/internal/store"
	"etap/internal/web"
)

// span is one timed call into a layer, kept in memory and written out
// when the run ends. Times are nanoseconds since the traced run began;
// Parent is the span of the document's POST /ingest.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Doc    string `json:"doc,omitempty"`
}

// hooks is the traced run's instrumentation: wrappers around the
// interfaces etapd's wiring accepts (the alert manager's Pipeline,
// Indexer, Sink and Deliverer, and the HTTP handler), recording spans
// and per-layer samples. Recording is switched on and off through the
// window, and a wrapper called while it is off passes straight
// through, so one run measures its own overhead. Only a traced run has
// hooks; toggle and wait accept a nil receiver so the workloads call
// them either way.
type hooks struct {
	t0 time.Time
	on atomic.Bool

	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
	roots   map[string]int64     // document URL → its POST /ingest span
	acked   map[string]time.Time // document URL → 202 written
	began   map[string]time.Time // document URL → Indexer.Ingest started
	stored  map[string]time.Time // fingerprint → Sink.AddLeads returned
	tried   map[alertKey]int     // delivery attempts per alert
}

func newHooks() *hooks {
	return &hooks{
		t0:      time.Now(),
		samples: map[string][]float64{},
		roots:   map[string]int64{},
		acked:   map[string]time.Time{},
		began:   map[string]time.Time{},
		stored:  map[string]time.Time{},
		tried:   map[alertKey]int{},
	}
}

// setOn switches span and sample recording.
func (h *hooks) setOn(on bool) { h.on.Store(on) }

// record adds a span and a millisecond sample under sample (when not
// empty), unless recording is off.
func (h *hooks) record(name, sample, doc string, start, end time.Time) {
	if !h.on.Load() {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.spans = append(h.spans, span{
		ID: int64(len(h.spans) + 1), Parent: h.roots[doc], Name: name, Doc: doc,
		Start: int64(start.Sub(h.t0)), End: int64(end.Sub(h.t0)),
	})
	if sample != "" {
		h.samples[sample] = append(h.samples[sample], ms(end.Sub(start)))
	}
}

func (h *hooks) add(sample string, v float64) {
	if !h.on.Load() {
		return
	}
	h.mu.Lock()
	h.samples[sample] = append(h.samples[sample], v)
	h.mu.Unlock()
}

func (h *hooks) get(sample string) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.samples[sample]...)
}

// queueWait pairs a document's 202 with the start of its
// Indexer.Ingest, whichever is seen second; a worker that starts
// before the 202 is written waited 0.
func (h *hooks) queueWaitLocked(url string) {
	a, okA := h.acked[url]
	s, okS := h.began[url]
	if !okA || !okS {
		return
	}
	wait := ms(s.Sub(a))
	if wait < 0 {
		wait = 0
	}
	h.samples["alert.queue_wait_ms"] = append(h.samples["alert.queue_wait_ms"], wait)
	delete(h.acked, url)
	delete(h.began, url)
}

// --- wrappers -----------------------------------------------------------

type tracedPipeline struct {
	h *hooks
	p alert.TracedPipeline
}

func (h *hooks) pipeline(p alert.TracedPipeline) alert.Pipeline { return tracedPipeline{h, p} }

func (t tracedPipeline) ExtractAllEvents(pages []*web.Page, threshold float64) []rank.Event {
	return t.ExtractAllEventsTraced(context.Background(), pages, threshold)
}

// ExtractAllEventsTraced forwards to the wrapped pipeline's traced form,
// so the manager takes the same code path it takes unwrapped.
func (t tracedPipeline) ExtractAllEventsTraced(ctx context.Context, pages []*web.Page, threshold float64) []rank.Event {
	if !t.h.on.Load() {
		return t.p.ExtractAllEventsTraced(ctx, pages, threshold)
	}
	start := time.Now()
	evs := t.p.ExtractAllEventsTraced(ctx, pages, threshold)
	doc := ""
	if len(pages) == 1 {
		doc = pages[0].URL
	}
	t.h.record("core.extract", "core.extract_ms", doc, start, time.Now())
	t.h.add("core.events", float64(len(evs)))
	return evs
}

type tracedIndexer struct {
	h  *hooks
	ix alert.Indexer
}

func (h *hooks) indexer(ix alert.Indexer) alert.Indexer { return tracedIndexer{h, ix} }

func (t tracedIndexer) Ingest(p web.Page) error {
	if !t.h.on.Load() {
		return t.ix.Ingest(p)
	}
	start := time.Now()
	t.h.mu.Lock()
	t.h.began[p.URL] = start
	t.h.queueWaitLocked(p.URL)
	t.h.mu.Unlock()
	err := t.ix.Ingest(p)
	t.h.record("web.ingest", "web.ingest_ms", p.URL, start, time.Now())
	return err
}

type tracedSink struct {
	h    *hooks
	sink alert.Sink
}

func (h *hooks) sink(s alert.Sink) alert.Sink { return tracedSink{h, s} }

func (t tracedSink) AddLeads(events []rank.Event, now time.Time) int {
	if !t.h.on.Load() {
		return t.sink.AddLeads(events, now)
	}
	start := time.Now()
	n := t.sink.AddLeads(events, now)
	end := time.Now()
	doc := ""
	if len(events) > 0 {
		doc = docURL(events[0].SnippetID)
	}
	t.h.record("store.add", "store.add_ms", doc, start, end)
	t.h.mu.Lock()
	for _, ev := range events {
		t.h.stored[alert.Fingerprint(ev)] = end
	}
	t.h.mu.Unlock()
	return n
}

type tracedDeliverer struct {
	h *hooks
	d alert.Deliverer
}

func (h *hooks) deliverer(d alert.Deliverer) alert.Deliverer { return tracedDeliverer{h, d} }

func (t tracedDeliverer) Deliver(ctx context.Context, sub alert.Subscription, a alert.Alert) error {
	if !t.h.on.Load() {
		return t.d.Deliver(ctx, sub, a)
	}
	start := time.Now()
	fp := alert.Fingerprint(a.Event)
	t.h.mu.Lock()
	k := alertKey{fp, sub.ID}
	t.h.tried[k]++
	if s, ok := t.h.stored[fp]; ok && t.h.tried[k] == 1 {
		t.h.samples["alert.lane_wait_ms"] = append(t.h.samples["alert.lane_wait_ms"], ms(start.Sub(s)))
	}
	t.h.mu.Unlock()
	err := t.d.Deliver(ctx, sub, a)
	t.h.record("alert.deliver", "alert.deliver_ms", docURL(a.Event.SnippetID), start, time.Now())
	return err
}

// http wraps the daemon's handler: per-route latency and response
// bytes, and for POST /ingest the document's root span and 202 time.
func (h *hooks) http(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		if route == "" || !h.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		var url string
		if route == "ingest" {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				var doc alert.Document
				if json.Unmarshal(body, &doc) == nil {
					url = doc.URL
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		root := -1
		if url != "" {
			// The document's root span is opened now so that the layer
			// spans its processing records meanwhile can name it.
			h.mu.Lock()
			root = len(h.spans)
			h.spans = append(h.spans, span{ID: int64(root + 1), Name: "serve.ingest", Doc: url, Start: int64(start.Sub(h.t0))})
			h.roots[url] = int64(root + 1)
			h.mu.Unlock()
		}
		next.ServeHTTP(cw, r)
		end := time.Now()
		switch {
		case root >= 0:
			h.mu.Lock()
			h.spans[root].End = int64(end.Sub(h.t0))
			h.samples["serve.ingest_ms"] = append(h.samples["serve.ingest_ms"], ms(end.Sub(start)))
			h.mu.Unlock()
		case route != "ingest":
			h.record("serve."+route, "serve."+route+"_ms", "", start, end)
			h.add("serve.read_bytes."+strings.TrimPrefix(route, "read_ms."), float64(cw.n))
		}
		if url != "" && cw.status == http.StatusAccepted {
			h.mu.Lock()
			h.acked[url] = end
			h.queueWaitLocked(url)
			h.mu.Unlock()
		}
	})
}

// routeOf names the request's route as the per-layer metrics do.
func routeOf(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/ingest":
		return "ingest"
	case r.URL.Path == "/leads" && r.URL.Query().Get("tenant") != "":
		return "read_ms.leads_tenant"
	case r.URL.Path == "/leads":
		return "read_ms.leads"
	case r.URL.Path == "/companies":
		return "read_ms.companies"
	case r.URL.Path == "/score":
		return "read_ms.score"
	case r.URL.Path == "/leads/review":
		return "read_ms.review"
	}
	return ""
}

type countingWriter struct {
	http.ResponseWriter
	n      int
	status int
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// writeSpans writes every recorded span as one JSON line.
func (h *hooks) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	h.mu.Lock()
	spans := h.spans
	h.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- per-layer reports --------------------------------------------------

// reportIngest derives the alert, web and serve metrics of an ingest
// window from the wrappers' samples and the daemon's counters.
func (h *hooks) reportIngest(rep *report, st windowStats, docs int) {
	rep.timing("serve.ingest_ms", "ms", h.get("serve.ingest_ms"))
	rep.timing("web.ingest_ms", "ms", h.get("web.ingest_ms"))
	rep.timing("alert.queue_wait_ms", "ms", h.get("alert.queue_wait_ms"))
	rep.timing("alert.lane_wait_ms", "ms", h.get("alert.lane_wait_ms"))
	rep.timing("alert.deliver_ms", "ms", h.get("alert.deliver_ms"))
	rep.timing("store.add_ms", "ms", h.get("store.add_ms"))
	fsyncs := st.delta("etap_alert_wal_fsyncs_total")
	appends := st.delta("etap_alert_wal_appends_total")
	rep.set("alert.wal.fsyncs_per_doc", ratio(fsyncs, float64(docs)), "count", docs)
	rep.set("alert.wal.batch_mean", ratio(appends, fsyncs), "count", int(fsyncs))
	h.mu.Lock()
	attempts, alerts := 0, len(h.tried)
	for _, n := range h.tried {
		attempts += n
	}
	h.mu.Unlock()
	rep.set("alert.attempts_per_alert", ratio(float64(attempts), float64(alerts)), "count", alerts)
	cands := st.sumDelta("etap_alert_match_candidates")
	events := st.delta("etap_alert_match_candidates")
	rep.set("alert.candidates_per_event", ratio(cands, events), "count", int(events))
	rep.set("alert.match_ratio", ratio(st.delta("etap_alert_fanout_total"), cands), "ratio", int(cands))
	extracted := st.delta("etap_alert_events_total")
	rep.set("alert.dedup_drop_ratio", ratio(st.delta("etap_alert_dedup_hits_total"), extracted), "ratio", int(extracted))
	rep.set("alert.rejects_per_doc", ratio(st.delta("etap_alert_ingest_rejected_total"), float64(docs)), "ratio", docs)
	rep.set("alert.dead_letters", st.delta("etap_alert_dead_letters_total"), "count", 1)
	ev := h.get("core.events")
	rep.set("core.events_per_doc", mean(ev), "count", len(ev))
	rep.timing("core.extract_ms", "ms", h.get("core.extract_ms"))
}

// reportRuntime reports the Go runtime's share of a window: bytes
// allocated and GC CPU per operation, GC pauses and cores kept busy.
func reportRuntime(rep *report, st windowStats, ops int) {
	rep.set("go.alloc_kb_per_op", ratio(float64(st.allocB)/1024, float64(ops)), "KiB", ops)
	rep.set("go.gc_cpu_ms_per_op", ratio(st.gcCPU.Seconds()*1000, float64(ops)), "ms", ops)
	rep.set("go.live_heap_mb", liveHeapMB(), "MB", 1)
	rep.set("go.gc_pause_ms.p99", must(quantile(st.gcPauseMS, 0.99)), "ms", len(st.gcPauseMS))
	if _, err := quantile(st.gcPauseMS, 0.99); err != nil {
		rep.note("go.gc_pause_ms.p99 not reported: %v (max pause %.3f ms)", err, maxOf(st.gcPauseMS))
	}
	rep.set("process.cores_busy", ratio(st.cpu.Seconds(), st.wall.Seconds()), "cores", 1)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// reportCore times the extraction layers by direct calls on the
// snippets of the first accepted documents: split per document, then
// NER, POS, annotation and scoring per snippet. Classification is
// System.Score minus Annotate.
func reportCore(rep *report, d *daemon, docs []corpus.Document) {
	const sample = 200
	gen := snippet.Generator{N: snippet.DefaultN}
	var split, nerT, posT, ann, score []float64
	snips := 0
	drivers := d.sys.Drivers()
	sort.Strings(drivers)
	for i := 0; i < len(docs) && i < sample; i++ {
		text := docs[i].Text()
		t := time.Now()
		ss := gen.Split(docs[i].URL, text)
		split = append(split, us(time.Since(t)))
		snips += len(ss)
		for _, sn := range ss {
			t = time.Now()
			d.sys.Recognizer().RecognizeText(sn.Text)
			nerT = append(nerT, us(time.Since(t)))
			t = time.Now()
			pos.TagText(sn.Text)
			posT = append(posT, us(time.Since(t)))
			t = time.Now()
			d.sys.Annotator().Annotate(sn.Text)
			ann = append(ann, us(time.Since(t)))
			for _, drv := range drivers {
				t = time.Now()
				if _, err := d.sys.Score(drv, sn.Text); err != nil {
					rep.fail("System.Score(%s): %v", drv, err)
				}
				score = append(score, us(time.Since(t)))
			}
		}
	}
	n := len(split)
	rep.set("core.snippets_per_doc", ratio(float64(snips), float64(n)), "count", n)
	rep.set("snippet.split_us_per_doc", median(split), "us", len(split))
	rep.set("ner.us_per_snippet", median(nerT), "us", len(nerT))
	rep.set("pos.us_per_snippet", median(posT), "us", len(posT))
	rep.set("annotate.us_per_snippet", median(ann), "us", len(ann))
	rep.set("classify.us_per_snippet", median(score)-median(ann), "us", len(score))
}

// reportStore times store.Find, rank and tenant matching by direct
// calls on a copy of the lead store taken while nothing mutates it.
func (h *hooks) reportStore(rep *report, d *daemon, st windowStats) {
	leads := d.store.Find(store.Query{})
	cp := store.New()
	evs := make([]rank.Event, len(leads))
	for i, l := range leads {
		evs[i] = l.Event
	}
	cp.Add(evs, time.Now())
	rep.set("store.leads", float64(cp.Len()), "count", 1)
	drivers := d.sys.Drivers()
	sort.Strings(drivers)
	var find []float64
	for i := 0; i < 60; i++ {
		q := store.Query{Driver: drivers[i%len(drivers)], MinScore: 0.6}
		if i%3 == 0 && len(leads) > 0 {
			q = store.Query{Company: leads[(i*7919)%len(leads)].Company}
		}
		t := time.Now()
		cp.Find(q)
		find = append(find, ms(time.Since(t)))
	}
	rep.set("store.find_ms.p50", median(find), "ms", len(find))

	var mrr, blend []float64
	profiles := d.tenants.List()
	for i := 0; i < 9; i++ {
		t := time.Now()
		byDriver := map[string][]rank.Event{}
		for _, l := range cp.Find(store.Query{}) {
			byDriver[l.Driver] = append(byDriver[l.Driver], l.Event)
		}
		var ranked []rank.Ranked
		for _, es := range byDriver {
			ranked = append(ranked, rank.ByScore(es)...)
		}
		rank.CompanyMRR(ranked)
		mrr = append(mrr, ms(time.Since(t)))
		if len(profiles) > 0 {
			p := profiles[i%len(profiles)]
			t = time.Now()
			rank.ByBlend(evs, func(ev rank.Event) float64 {
				c, _ := d.kb.Lookup(ev.Company)
				return p.Score(c, ev.Text)
			}, rank.DefaultBlend)
			blend = append(blend, ms(time.Since(t)))
		}
	}
	rep.set("rank.company_mrr_ms", median(mrr), "ms", len(mrr))
	rep.set("rank.blend_ms", median(blend), "ms", len(blend))

	var match, lookup []float64
	if len(profiles) > 0 && len(leads) > 0 {
		const n = 2000
		t := time.Now()
		for i := 0; i < n; i++ {
			d.kb.Lookup(leads[i%len(leads)].Company)
		}
		lookup = append(lookup, us(time.Since(t))/n)
		c, _ := d.kb.Lookup(leads[0].Company)
		t = time.Now()
		for i := 0; i < n; i++ {
			profiles[i%len(profiles)].MatchCompany(c)
		}
		match = append(match, us(time.Since(t))/n)
	}
	rep.set("tenant.match_us", mean(match), "us", len(match)*2000)
	rep.set("kb.lookup_us", mean(lookup), "us", len(lookup)*2000)
	hits, misses := st.delta("etap_tenant_cache_hits_total"), st.delta("etap_tenant_cache_misses_total")
	rep.set("tenant.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
}

// toggler switches recording on in the even seconds of the measured
// window and off in the odd ones, attributing process CPU to each, so a
// traced run measures its own overhead against the same run untraced:
// in an off second every wrapper passes straight through. Recording is
// off before the window and after it.
type toggler struct {
	h     *hooks
	start time.Time
	span  time.Duration
	done  chan struct{}
	cpu   [2]time.Duration // [off, on]
}

// toggle starts switching at the window's start, for span; nil when h
// is nil.
func (h *hooks) toggle(start time.Time, span time.Duration) *toggler {
	if h == nil {
		return nil
	}
	h.setOn(false)
	t := &toggler{h: h, start: start, span: span, done: make(chan struct{})}
	go t.run()
	return t
}

func (t *toggler) run() {
	defer close(t.done)
	time.Sleep(time.Until(t.start))
	last := cpuTime()
	for k := 0; time.Duration(k)*time.Second < t.span; k++ {
		on := 1 - k%2
		t.h.setOn(on == 1)
		next := time.Duration(k+1) * time.Second
		if next > t.span {
			next = t.span
		}
		time.Sleep(time.Until(t.start.Add(next)))
		cpu := cpuTime()
		t.cpu[on] += cpu - last
		last = cpu
	}
	t.h.setOn(false)
}

// wait returns once the window is over and recording is off.
func (t *toggler) wait() {
	if t != nil {
		<-t.done
	}
}

// tracedAt reports whether an operation at offset at of the measured
// window ran with recording on.
func tracedAt(at time.Duration) bool { return at >= 0 && int(at/time.Second)%2 == 0 }

// reportOverhead states the traced run's overhead against the same run
// untraced: the ratio of median latencies and of CPU per operation
// between the seconds with recording on and those with it off. lat
// holds latencies of operations at offsets at from the schedule's
// origin, warm before the window.
func (t *toggler) reportOverhead(rep *report, lat []float64, at []time.Duration, warm time.Duration) {
	var on, off []float64
	for i, v := range lat {
		switch w := at[i] - warm; {
		case w < 0 || w >= t.span:
		case tracedAt(w):
			on = append(on, v)
		default:
			off = append(off, v)
		}
	}
	p50on, err1 := quantile(on, 0.5)
	p50off, err2 := quantile(off, 0.5)
	if err1 == nil && err2 == nil {
		rep.set("trace.overhead_p50_ratio", ratio(p50on, p50off), "ratio", len(on)+len(off))
	}
	cpuOn := ratio(float64(t.cpu[1]), float64(len(on)))
	cpuOff := ratio(float64(t.cpu[0]), float64(len(off)))
	rep.set("trace.overhead_cpu_ratio", ratio(cpuOn, cpuOff), "ratio", len(on)+len(off))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fill reports every per-layer metric this workload left unmeasured as
// 0 with sample count 0: the layer does no work on this workload.
func fill(rep *report) {
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit, 0)
		}
	}
}
