package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"etap/internal/alert"
	"etap/internal/corpus"
	"etap/internal/kb"
	"etap/internal/rank"
	"etap/internal/snippet"
	"etap/internal/tenant"
	"etap/internal/web"
)

// ingestSizes sizes the ingest workload.
type ingestSizes struct {
	rate    float64 // documents per second, open loop
	warm    float64 // seconds sent before the measured window
	subs    int     // company subscriptions (plus two firehoses)
	tenants int
	sinks   int
	setups  int
}

func (b *bench) ingestSizes() ingestSizes {
	if b.opts.smoke {
		return ingestSizes{rate: 60, warm: 0.2, subs: 40, tenants: 5, sinks: 2, setups: 1}
	}
	return ingestSizes{rate: 300, warm: 3, subs: 998, tenants: 50, sinks: 4, setups: 5}
}

// runIngest is the paper's operational loop: fresh documents stream
// into POST /ingest on an open-loop schedule while 1,000 subscriptions
// receive webhook alerts at loopback sinks.
func runIngest(b *bench) error {
	sz := b.ingestSizes()
	n := int(sz.rate * (sz.warm + b.opts.seconds))
	bodies, err := ingestBodies(streamDocs(b.opts.seed, n, "ingest"))
	if err != nil {
		return err
	}
	due := schedule(n, sz.rate)
	sk, err := startSinks(sz.sinks)
	if err != nil {
		return err
	}
	defer sk.close()
	cfg := daemonConfig{world: corpus.Config{Seed: etapdSeed}, dir: filepath.Join(b.tmp, "ingest")}
	d, err := b.start(cfg)
	if err != nil {
		return err
	}
	defer d.close()
	client := newClient()
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(layoutSeed))
	tenantIDs, err := createTenants(client, d, rng, sz.tenants)
	if err != nil {
		return err
	}
	subs, err := createSubscriptions(client, d, rng, sz, tenantIDs, sk.urls)
	if err != nil {
		return err
	}

	win := b.startWindow(d, sz.warm)
	t0 := win.t0
	res := openLoop(t0, due, maxConns, func(i int) (int, error) {
		code, _, err := do(client, http.MethodPost, d.url+"/ingest", bodies[i])
		return code, err
	})
	if err := d.drain(60 * time.Second); err != nil {
		return fmt.Errorf("draining the alert pipeline: %w", err)
	}
	elapsed := time.Since(t0)
	stats := b.endWindow(d, win)
	bodies = nil
	docs := streamDocs(b.opts.seed, n, "ingest")

	// Outcome of every send: anything but a 202, a 429 included, fails.
	warm := win.warm
	accepted := make([]bool, n)
	var ack, late []float64
	acceptedN, measured := 0, 0
	for i, r := range res {
		b.rep.attempted++
		if r.err != nil || r.status != http.StatusAccepted {
			b.rep.fail("POST /ingest %s: status %d err %v", docs[i].URL, r.status, r.err)
			continue
		}
		accepted[i] = true
		acceptedN++
		if r.due >= warm {
			measured++
			ack = append(ack, ms(r.end-r.due))
			late = append(late, ms(r.start-r.due))
		}
	}

	// Every expected (fingerprint, subscription) alert exactly once.
	exp, fresh := expectedAlerts(d, docs, accepted, subs)
	got, bad := sk.take()
	if bad > 0 {
		b.rep.fail("%d unreadable webhook bodies", bad)
	}
	urlIdx := make(map[string]int, n)
	for i, doc := range docs {
		urlIdx[doc.URL] = i
	}
	seen := map[alertKey]int{}
	var alertLat []float64
	var alertDue []time.Duration
	firehose := map[string]bool{}
	for _, g := range got {
		k := alertKey{g.fp, g.sub}
		seen[k]++
		if g.sub == subs[0].ID {
			firehose[k.fp] = true
		}
		i, ok := urlIdx[g.url]
		if ok && due[i] >= warm {
			alertLat = append(alertLat, ms(g.at.Sub(t0)-due[i]))
			alertDue = append(alertDue, due[i])
		}
	}
	// An alert that never arrived fails; the message says whether the
	// daemon dead-lettered it. The dead-letter buffer keeps the newest
	// entries only; the counter covers the ones it dropped.
	dead := map[alertKey]string{}
	for _, dl := range d.manager.DeadLetters() {
		dead[alertKey{alert.Fingerprint(dl.Alert.Event), dl.Alert.Subscription}] = dl.Reason
	}
	deadTotal := int(stats.delta("etap_alert_dead_letters_total"))
	unlisted := deadTotal - len(dead)
	b.rep.attempted += len(exp)
	for k := range exp {
		if seen[k] > 0 {
			continue
		}
		reason, listed := dead[k]
		switch {
		case listed:
			b.rep.fail("alert %s for %s dead-lettered: %s", k.fp, k.sub, reason)
		case unlisted > 0:
			unlisted--
			b.rep.fail("alert %s for %s never arrived; counted among the dead letters the buffer dropped", k.fp, k.sub)
		default:
			b.rep.fail("alert %s for %s never arrived and was not dead-lettered", k.fp, k.sub)
		}
	}
	for k, c := range seen {
		switch {
		case !exp[k]:
			b.rep.fail("unexpected alert %s for %s (x%d)", k.fp, k.sub, c)
		case c > 1:
			b.rep.fail("alert %s for %s arrived %d times", k.fp, k.sub, c)
		}
	}

	precision, recall := leadQuality(docs, accepted, firehose)
	b.rep.set("p50_ms", must(quantile(alertLat, 0.5)), "ms", len(alertLat))
	b.rep.setP99(alertLat, alertDue, warm, b.opts.seconds)
	b.rep.set("ops_per_s", float64(acceptedN)/elapsed.Seconds(), "1/s", acceptedN)
	b.rep.set("cpu_ms_per_op", ratio(stats.cpu.Seconds()*1000, float64(acceptedN)), "ms", acceptedN)
	b.rep.timing("alert_ms", "ms", alertLat)
	b.rep.timing("ack_ms", "ms", ack)
	b.rep.set("lead_precision", precision, "ratio", len(firehose))
	b.rep.set("lead_recall", recall, "ratio", len(firehose))
	b.rep.set("alerts_per_doc", ratio(float64(len(got)), float64(acceptedN)), "count", len(got))
	b.rep.set("fresh_events", float64(len(fresh)), "count", 1)
	b.rep.set("alert.new_conns_per_delivery", ratio(float64(sk.newConns.Load()), float64(len(got))), "ratio", len(got))
	b.rep.set("alert.dead_letters", float64(deadTotal), "count", 1)
	b.rep.timing("loadgen.late_ms", "ms", late)
	reportRuntime(b.rep, stats, acceptedN)
	b.rep.note("ingest: %d docs sent (%d accepted in the measured window), %d alerts received, %d expected, %d subscriptions",
		n, measured, len(got), len(exp), len(subs))
	if b.opts.trace {
		b.hooks.reportIngest(b.rep, stats, acceptedN)
		reportCore(b.rep, d, docs)
		win.tog.reportOverhead(b.rep, alertLat, alertDue, warm)
	}
	return b.finish(d, cfg, sz.setups, false)
}

// alertKey identifies one delivery: an event (by fingerprint) to one
// subscription.
type alertKey struct{ fp, sub string }

// docURL recovers the document URL from a streamed snippet ID
// ("<url>#<index>").
func docURL(snippetID string) string {
	if i := strings.LastIndexByte(snippetID, '#'); i >= 0 {
		return snippetID[:i]
	}
	return snippetID
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// must unwraps a quantile, reporting 0 when the sample cannot support
// it (the report's notes say so).
func must(v float64, err error) float64 {
	if err != nil {
		return 0
	}
	return v
}

// createTenants registers n ICP profiles through POST /tenants.
func createTenants(c *http.Client, d *daemon, rng *rand.Rand, n int) ([]string, error) {
	var hqs []string
	seen := map[string]bool{}
	for _, co := range d.kb.Companies() {
		if !seen[co.HQ] {
			seen[co.HQ] = true
			hqs = append(hqs, co.HQ)
		}
	}
	pick := func(pool []string, k int) []string {
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
			Industries: pick(kb.Industries, 2+rng.Intn(4)),
			Keywords:   pick(keywords, rng.Intn(3)),
			MinScore:   0.3 * rng.Float64(),
		}
		if rng.Intn(3) == 0 {
			p.SizeBuckets = pick(kb.SizeBuckets, 2+rng.Intn(3))
		}
		if rng.Intn(5) == 0 {
			p.Locations = pick(hqs, 1+rng.Intn(len(hqs)/2))
		}
		if rng.Intn(4) == 0 {
			p.Quota = 10 + rng.Intn(40)
		}
		var stored tenant.Profile
		if err := postJSON(c, d.url+"/tenants", p, &stored, http.StatusCreated); err != nil {
			return nil, err
		}
		ids = append(ids, stored.ID)
	}
	return ids, nil
}

// subMinScores are the subscriptions' score floors: with them the
// 1,000 subscriptions deliver about five alerts per document.
var subMinScores = []float64{0.9, 0.97, 0.99}

// createSubscriptions registers the alert subscriptions through POST
// /subscriptions: two firehoses first, then company subscriptions
// skewed toward hot companies (Zipf over a seeded company order), a
// third narrowed to one driver and a quarter tenant-scoped, spread
// over the sinks.
func createSubscriptions(c *http.Client, d *daemon, rng *rand.Rand, sz ingestSizes, tenantIDs, hooks []string) ([]alert.Subscription, error) {
	companies := d.kb.Companies()
	hot := rng.Perm(len(companies))
	zipf := rand.NewZipf(rng, 1.2, 2, uint64(len(companies)-1))
	drivers := d.sys.Drivers()
	var want []alert.Subscription
	for i := 0; i < 2; i++ {
		want = append(want, alert.Subscription{WebhookURL: hooks[i%len(hooks)]})
	}
	for i := 0; i < sz.subs; i++ {
		s := alert.Subscription{
			Company:    companies[hot[zipf.Uint64()]].Name,
			MinScore:   subMinScores[rng.Intn(len(subMinScores))],
			WebhookURL: hooks[rng.Intn(len(hooks))],
		}
		if rng.Intn(3) == 0 {
			s.Driver = drivers[rng.Intn(len(drivers))]
		}
		if rng.Intn(4) == 0 {
			s.Tenant = tenantIDs[rng.Intn(len(tenantIDs))]
		}
		want = append(want, s)
	}
	out := make([]alert.Subscription, 0, len(want))
	for _, s := range want {
		var stored alert.Subscription
		if err := postJSON(c, d.url+"/subscriptions", s, &stored, http.StatusCreated); err != nil {
			return nil, err
		}
		out = append(out, stored)
	}
	return out, nil
}

// expectedAlerts is the reference pass: the accepted documents through
// the public batch extraction, deduplicated by fingerprint, matched
// against every subscription by a linear scan (Subscription.Matches)
// and ICP-filtered on the knowledge-base record.
func expectedAlerts(d *daemon, docs []corpus.Document, accepted []bool, subs []alert.Subscription) (map[alertKey]bool, map[string]rank.Event) {
	events := make([][]rank.Event, len(docs))
	parallel(len(docs), func(i int) {
		if !accepted[i] {
			return
		}
		doc := docs[i]
		page := &web.Page{URL: doc.URL, Host: web.HostOf(doc.URL), Title: doc.Title, Text: doc.Text()}
		events[i] = d.sys.ExtractAllEvents([]*web.Page{page}, 0.5)
	})
	fresh := map[string]rank.Event{}
	for _, evs := range events {
		for _, ev := range evs {
			fp := alert.Fingerprint(ev)
			if _, ok := fresh[fp]; !ok {
				fresh[fp] = ev
			}
		}
	}
	exp := map[alertKey]bool{}
	for fp, ev := range fresh {
		for _, s := range subs {
			if s.Matches(ev) && icpAllows(d, s, ev) {
				exp[alertKey{fp, s.ID}] = true
			}
		}
	}
	return exp, fresh
}

// icpAllows applies a tenant-scoped subscription's ICP to the event's
// knowledge-base record; a missing profile allows nothing.
func icpAllows(d *daemon, s alert.Subscription, ev rank.Event) bool {
	if s.Tenant == "" {
		return true
	}
	p, _, err := d.tenants.Get(s.Tenant)
	if err != nil {
		return false
	}
	c, ok := d.kb.Lookup(ev.Company)
	if !ok {
		c = nil
	}
	return p.MatchCompany(c)
}

// leadQuality scores the streamed leads (the firehose's fingerprints)
// against the corpus's per-sentence ground truth: a positive is a
// snippet holding a trigger sentence, keyed by the fingerprint of
// (driver, subject company, snippet text).
func leadQuality(docs []corpus.Document, accepted []bool, leads map[string]bool) (precision, recall float64) {
	truth := map[string]bool{}
	gen := snippet.Generator{N: snippet.DefaultN}
	for i, doc := range docs {
		if !accepted[i] {
			continue
		}
		for _, sn := range gen.Split(doc.URL, doc.Text()) {
			for _, s := range doc.Sentences {
				if s.Driver != "" && strings.Contains(sn.Text, s.Text) {
					truth[alert.Fingerprint(rank.Event{Driver: string(s.Driver), Company: s.Company, Text: sn.Text})] = true
				}
			}
		}
	}
	hit := 0
	for fp := range leads {
		if truth[fp] {
			hit++
		}
	}
	return ratio(float64(hit), float64(len(leads))), ratio(float64(hit), float64(len(truth)))
}

// parallel runs fn(0..n-1) on maxConns goroutines.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for j := 0; j < maxConns; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := j; i < n; i += maxConns {
				fn(i)
			}
		}(j)
	}
	wg.Wait()
}
