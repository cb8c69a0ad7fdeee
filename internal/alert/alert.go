// Package alert is ETAP's streaming subsystem — the "Electronic
// Trigger Alert Program" finally living up to its name. The batch
// pipeline crawls, extracts, and serves a static ranked list; this
// package makes it proactive, the production shape Sedano's news
// stream processor takes: documents arrive one at a time, flow through
// the same snippet → annotate → classify → rank path, are deduplicated
// against everything already alerted, and matching subscribers are
// notified while the news is fresh.
//
// The manager owns three stages, each independently bounded:
//
//	ingest    a bounded queue + worker pool; a full queue rejects the
//	          document (the HTTP layer answers 429) instead of buffering
//	          without limit
//	dedup     a fingerprint set (company + driver + snippet text) seeded
//	          from the checkpointed lead store, so re-ingestion — and a
//	          restart — never re-alerts an event already seen
//	delivery  per-subscriber queues with at-least-once webhook delivery
//	          under the crawler's retry/backoff/breaker policy, a
//	          dead-letter buffer for what delivery gave up on, and an
//	          SSE broadcast for live watchers
package alert

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"etap/internal/gather"
	"etap/internal/kb"
	"etap/internal/obs"
	"etap/internal/rank"
	"etap/internal/tenant"
	"etap/internal/web"
)

// Document is one unit of the ingest stream — the body of POST
// /ingest.
type Document struct {
	URL   string `json:"url"`
	Title string `json:"title,omitempty"`
	Text  string `json:"text"`
}

// Pipeline extracts trigger events from pages across every trained
// driver. core.System implements it (ExtractAllEvents).
type Pipeline interface {
	ExtractAllEvents(pages []*web.Page, threshold float64) []rank.Event
}

// TracedPipeline is the optional Pipeline extension the manager
// prefers when per-document tracing is on: implementations contribute
// extraction spans to the document trace carried by ctx. core.System
// implements it (ExtractAllEventsTraced).
type TracedPipeline interface {
	Pipeline
	ExtractAllEventsTraced(ctx context.Context, pages []*web.Page, threshold float64) []rank.Event
}

// Sink receives freshly extracted events. serve.Server implements it
// over the lead store, so streamed and batch-extracted leads land in
// the same place.
type Sink interface {
	AddLeads(events []rank.Event, now time.Time) int
}

// Indexer adds ingested pages to the searchable web. *web.Web
// implements it (Ingest); a duplicate URL must return
// web.ErrDuplicatePage.
type Indexer interface {
	Ingest(p web.Page) error
}

// Config tunes the manager. The zero value selects the defaults noted
// per field.
type Config struct {
	// Workers is the ingest worker-pool size; 0 means 2. Each worker
	// owns one partition (see Partitions), so this is also the default
	// partition count.
	Workers int
	// Partitions is the ingest partition count: documents are routed by
	// URL hash, each partition consumed in order by one worker so the
	// WAL's committed offsets are exact watermarks. 0 means Workers.
	Partitions int
	// QueueSize bounds each partition's ingest queue; 0 means 64. A
	// full partition rejects with ErrQueueFull (HTTP 429). Total ingest
	// capacity is Partitions × QueueSize.
	QueueSize int
	// WAL, when non-nil, logs every accepted document durably before
	// Enqueue returns, and Start replays whatever a previous life
	// accepted but did not finish. The manager takes ownership: Close
	// closes it.
	WAL *WAL
	// Threshold is the classifier-score floor for trigger events;
	// 0 means 0.5.
	Threshold float64
	// SubscriberQueue bounds each subscriber's delivery queue; 0 means
	// 16. A full queue dead-letters the alert.
	SubscriberQueue int
	// DeadLetterCap bounds the dead-letter buffer; 0 means 128. When
	// full, the oldest entry is dropped.
	DeadLetterCap int
	// SSEBuffer is the per-client SSE frame buffer; 0 means 16.
	SSEBuffer int
	// Retry tunes webhook delivery (attempts, backoff, breaker); the
	// zero value means gather's documented defaults.
	Retry gather.RetryConfig
	// Clock supplies timestamps (alert times, lead FirstSeen); nil
	// means time.Now. Tests inject a fixed clock for determinism.
	Clock func() time.Time
	// Registry receives the etap_alert_* series; nil means obs.Default.
	Registry *obs.Registry
	// Subscriptions is the initial subscription set (typically loaded
	// from a checkpoint); nil starts empty.
	Subscriptions *Subscriptions
	// Deliverer pushes alerts to webhook endpoints; nil means a
	// WebhookDeliverer with its default client. Tests inject recorders
	// and fault injectors.
	Deliverer Deliverer
	// Log receives structured progress and drop reports; nil means
	// slog.Default.
	Log *slog.Logger
	// Tracer mints one distributed trace per accepted document,
	// following it through extraction, matching, and every webhook
	// delivery; nil disables per-document tracing. Share the tracer
	// with serve.Server.AttachTracer so the traces are browsable.
	Tracer *obs.Tracer
	// LagSLO is the p99 delivery-lag budget (ingest accept → webhook
	// 2xx). When the observed p99 exceeds it, Health reports the
	// subsystem degraded; 0 disables the check.
	LagSLO time.Duration
	// Tenants, when non-nil, enables tenant-scoped subscriptions:
	// fan-out additionally filters each tenant-tagged subscription
	// through its tenant's ICP, looked up at dispatch time. Without a
	// registry, tenant-scoped subscriptions deliver nothing (fail
	// closed).
	Tenants *tenant.Registry
	// KB supplies company firmographics for tenant ICP filtering; nil
	// means events resolve to no record, so ICPs with categorical
	// criteria match nothing.
	KB *kb.KB
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Partitions <= 0 {
		c.Partitions = c.Workers
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	if c.Clock == nil {
		//etaplint:ignore determinism -- wall-clock default for production; tests inject a fixed Clock
		c.Clock = time.Now
	}
	if c.Subscriptions == nil {
		c.Subscriptions = NewSubscriptions()
	}
	if c.Deliverer == nil {
		c.Deliverer = &WebhookDeliverer{}
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// ErrQueueFull reports an ingest queue at capacity — the backpressure
// signal the HTTP layer translates to 429.
var ErrQueueFull = errors.New("alert: ingest queue full")

// ErrClosed reports an enqueue after Close.
var ErrClosed = errors.New("alert: manager closed")

// ErrNotStarted reports an enqueue before Start (including the window
// where Start is still replaying the write-ahead log).
var ErrNotStarted = errors.New("alert: manager not started")

// ErrWAL reports a write-ahead-log failure during enqueue: the
// document could not be made durable, so it was not accepted. The HTTP
// layer translates it to 503 — the client should retry.
var ErrWAL = errors.New("alert: write-ahead log failure")

// Manager runs the streaming subsystem: the ingest pool, the dedup
// set, the dispatcher, and the SSE broadcaster.
type Manager struct {
	cfg      Config
	met      *metrics
	pipeline Pipeline
	sink     Sink
	indexer  Indexer
	subs     *Subscriptions
	dedup    *dedup
	disp     *dispatcher
	bcast    *Broadcaster
	wal      *WAL

	parts    []*partition
	pending  atomic.Int64 // documents accepted but not fully processed
	wg       sync.WaitGroup
	launched atomic.Bool // Start ran (consumers spawned, replay begun)
	started  atomic.Bool // Enqueue is open (replay finished)

	// closeMu serializes Enqueue's send against Close's channel close:
	// enqueues hold the read side, so Close cannot close a partition
	// between the closed check and the send.
	closeMu sync.RWMutex
	closed  bool
}

// NewManager wires a manager over the extraction pipeline, the lead
// sink, and the searchable web. Any of the three may be nil in tests
// exercising a subset of the path.
func NewManager(pipeline Pipeline, sink Sink, indexer Indexer, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	met := newMetrics(cfg.Registry)
	m := &Manager{
		cfg:      cfg,
		met:      met,
		pipeline: pipeline,
		sink:     sink,
		indexer:  indexer,
		subs:     cfg.Subscriptions,
		dedup:    newDedup(),
		bcast:    newBroadcaster(cfg.SSEBuffer, met),
		wal:      cfg.WAL,
		parts:    make([]*partition, cfg.Partitions),
	}
	m.disp = newDispatcher(cfg, met, cfg.Deliverer, m.subscriptionLive)
	for i := range m.parts {
		m.parts[i] = &partition{ch: make(chan ingestItem, cfg.QueueSize)}
	}
	if m.wal != nil {
		m.wal.SetPartitions(cfg.Partitions)
	}
	return m
}

// subscriptionLive reports whether a subscription still exists — the
// dispatcher's guard against resurrecting a delivery worker for an
// unsubscribed endpoint.
func (m *Manager) subscriptionLive(id string) bool {
	_, err := m.subs.Get(id)
	return err == nil
}

// ingestItem is one queued document plus its per-document trace and
// accept timestamp. The trace must ride the queue with the document:
// worker goroutines run under the Start context, not the HTTP
// request's, so a context value would not survive the hop.
type ingestItem struct {
	doc        Document
	tr         *obs.DTrace
	root       *obs.DSpan
	acceptedAt time.Time // Clock at Enqueue; the delivery-lag SLO's zero point
	seq        uint64    // WAL sequence; 0 when the manager runs without a WAL
	part       int       // owning partition (routeDoc of the URL)
}

// traceID returns the item's hex trace ID, "" when tracing is off.
func (it ingestItem) traceID() string { return it.tr.ID() }

// Start launches the partition consumers and, when a WAL is attached,
// synchronously replays every document a previous life accepted but
// did not finish processing — Enqueue answers ErrNotStarted (HTTP 503)
// until the replay is fully enqueued. ctx bounds all delivery
// attempts: cancelling it makes in-flight webhook deliveries abort
// instead of sitting through backoff.
func (m *Manager) Start(ctx context.Context) {
	if !m.launched.CompareAndSwap(false, true) {
		return
	}
	for i, p := range m.parts {
		m.wg.Add(1)
		go m.consume(ctx, i, p)
	}
	if m.wal != nil {
		var replayed int
		if err := m.replayWAL(&replayed); err != nil {
			// Replay is best-effort beyond the point of damage: what was
			// re-enqueued is processed; the rest needs the operator (see
			// the OPERATIONS.md runbook).
			m.cfg.Log.Error("alert: wal replay aborted", "replayed", replayed, "err", err)
		} else if replayed > 0 {
			m.cfg.Log.Info("alert: wal replay complete", "replayed", replayed)
		}
	}
	m.started.Store(true)
}

// SeedEvents marks events as already alerted without delivering
// anything — how a restart recovers dedup state from the checkpointed
// lead store before the first document arrives.
func (m *Manager) SeedEvents(events []rank.Event) {
	m.dedup.seed(events)
}

// Subscriptions exposes the subscription set (for the CRUD API and the
// checkpointer).
func (m *Manager) Subscriptions() *Subscriptions { return m.subs }

// Broadcaster exposes the SSE fan-out (for the /alerts/stream
// handler).
func (m *Manager) Broadcaster() *Broadcaster { return m.bcast }

// DeadLetters returns a copy of the dead-letter buffer, oldest first.
func (m *Manager) DeadLetters() []DeadLetter { return m.disp.dead.list() }

// Unsubscribe deletes a subscription and retires its delivery worker.
func (m *Manager) Unsubscribe(id string) error {
	if err := m.subs.Delete(id); err != nil {
		return err
	}
	m.disp.stop(id)
	return nil
}

// Enqueue offers one document to the ingest queue. A full queue
// returns ErrQueueFull immediately — the caller decides whether to
// shed or retry.
func (m *Manager) Enqueue(doc Document) error {
	_, err := m.EnqueueTraced(doc)
	return err
}

// EnqueueTraced is Enqueue returning the document's hex trace ID ("" when
// the manager has no Tracer) — the value POST /ingest echoes in its
// 202 response. A queue-full rejection still returns the ID: the trace
// ends in error status, so the rejection is findable in /debug/traces.
//
// With a WAL attached, the document is appended to the log and fsynced
// (group commit) before a nil error is returned: once the caller sees
// success, a crash cannot lose the document.
func (m *Manager) EnqueueTraced(doc Document) (string, error) {
	if doc.URL == "" {
		return "", errors.New("alert: document without URL")
	}
	if doc.Text == "" {
		return "", errors.New("alert: document without text")
	}
	if !m.started.Load() {
		return "", ErrNotStarted
	}
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	if m.closed {
		return "", ErrClosed
	}
	tr, root := m.cfg.Tracer.StartTrace("ingest")
	root.SetAttr("url", doc.URL)
	it := ingestItem{doc: doc, tr: tr, root: root, acceptedAt: m.cfg.Clock()}
	it.part = routeDoc(doc.URL, len(m.parts))
	p := m.parts[it.part]
	// Credit gate: inflight is decremented at dequeue, so it bounds the
	// channel occupancy — the send below can never block.
	if p.inflight.Add(1) > int64(m.cfg.QueueSize) {
		p.inflight.Add(-1)
		m.met.rejected.Inc()
		root.Fail(ErrQueueFull.Error())
		root.End()
		return it.traceID(), ErrQueueFull
	}
	// Append and send under the partition mutex so channel order equals
	// sequence order; fsync AFTER releasing it so one slow flush doesn't
	// serialize the partition (Sync group-commits across partitions).
	p.mu.Lock()
	if m.wal != nil {
		seq, err := m.wal.Append(WALRecord{
			URL: doc.URL, Title: doc.Title, Text: doc.Text,
			At: it.acceptedAt.UnixNano(),
		})
		if err != nil {
			p.mu.Unlock()
			p.inflight.Add(-1)
			m.met.walErrors.Inc()
			root.Fail(err.Error())
			root.End()
			m.cfg.Log.Error("alert: wal append",
				"url", doc.URL, "trace_id", it.traceID(), "err", err)
			return it.traceID(), errors.Join(ErrWAL, err)
		}
		it.seq = seq
	}
	//etaplint:ignore channel-discipline -- the credit gate above keeps channel occupancy strictly below capacity, so this send never blocks; it must stay inside p.mu so channel order equals WAL-sequence order
	p.ch <- it
	p.mu.Unlock()
	m.pending.Add(1)
	if m.wal != nil && it.seq > 0 {
		if err := m.wal.Sync(it.seq); err != nil {
			// The item is already queued and may be processed — delivery
			// is at-least-once — but durability failed, so the caller
			// must not treat the document as accepted.
			m.met.walErrors.Inc()
			m.cfg.Log.Error("alert: wal fsync",
				"url", doc.URL, "trace_id", it.traceID(), "err", err)
			return it.traceID(), errors.Join(ErrWAL, err)
		}
	}
	m.met.ingested.Inc()
	m.met.queueDepth.Set(m.queueDepth())
	return it.traceID(), nil
}

// process runs one document through the streaming pipeline: index,
// extract, dedup, store, fan out. Each stage contributes a span to the
// document's trace (when tracing is on).
func (m *Manager) process(ctx context.Context, it ingestItem) {
	doc := it.doc
	ctx = obs.ContextWithDSpan(ctx, it.root)
	defer it.root.End()
	start := m.cfg.Clock()
	defer func() {
		m.met.ingestDur.Observe(m.cfg.Clock().Sub(start).Seconds())
	}()
	page := web.Page{URL: doc.URL, Host: web.HostOf(doc.URL), Title: doc.Title, Text: doc.Text}
	if m.indexer != nil {
		_, isp := obs.StartDSpan(ctx, "index")
		if err := m.indexer.Ingest(page); err != nil {
			if !errors.Is(err, web.ErrDuplicatePage) {
				isp.Fail(err.Error())
				isp.End()
				it.root.Fail("index: " + err.Error())
				m.cfg.Log.WarnContext(ctx, "alert: indexing ingested document", "url", doc.URL, "err", err)
				return
			}
			// A replayed URL is expected on a stream: extraction still
			// runs (the text may differ), and the fingerprint dedup
			// decides what, if anything, is new.
			isp.SetAttr("duplicate", "true")
			m.met.dupDocs.Inc()
		}
		isp.End()
	}
	var events []rank.Event
	ectx, esp := obs.StartDSpan(ctx, "extract")
	if m.pipeline != nil {
		if tp, ok := m.pipeline.(TracedPipeline); ok {
			events = tp.ExtractAllEventsTraced(ectx, []*web.Page{&page}, m.cfg.Threshold)
		} else {
			events = m.pipeline.ExtractAllEvents([]*web.Page{&page}, m.cfg.Threshold)
		}
	}
	esp.SetAttr("events", strconv.Itoa(len(events)))
	esp.End()
	m.met.events.Add(uint64(len(events)))
	_, dsp := obs.StartDSpan(ctx, "dedup")
	fresh, dropped := m.dedup.filter(events)
	dsp.SetAttr("fresh", strconv.Itoa(len(fresh)))
	dsp.SetAttr("dropped", strconv.Itoa(dropped))
	dsp.End()
	m.met.dedupHits.Add(uint64(dropped))
	if len(fresh) == 0 {
		return
	}
	now := m.cfg.Clock()
	if m.sink != nil {
		_, ssp := obs.StartDSpan(ctx, "store")
		added := m.sink.AddLeads(fresh, now)
		ssp.SetAttr("added", strconv.Itoa(added))
		ssp.End()
	}
	for _, ev := range fresh {
		m.fanOut(ctx, ev, now, it)
	}
}

// fanOut broadcasts one fresh event to the SSE stream and enqueues it
// to every matching webhook subscriber, stamping the document's trace
// ID into every frame and alert. Matching goes through the inverted
// subscription index: Candidates prunes to the buckets that could
// match (O(matching), not O(all subscribers)) and Matches confirms
// each one, so the index is a cost optimization, never a correctness
// dependency.
func (m *Manager) fanOut(ctx context.Context, ev rank.Event, now time.Time, it ingestItem) {
	a := Alert{Event: ev, Time: now.Unix(), TraceID: it.traceID()}
	if frame, err := json.Marshal(a); err != nil {
		// The SSE frame is lost but webhook fan-out below still runs —
		// say so instead of silently thinning the stream.
		m.met.sseMarshal.Inc()
		m.cfg.Log.WarnContext(ctx, "alert: marshaling SSE frame",
			"trace_id", it.traceID(), "err", err)
	} else {
		m.bcast.Broadcast(frame)
	}
	cands := m.subs.Candidates(ev.Company, ev.Driver)
	m.met.candidates.Observe(float64(len(cands)))
	for _, sub := range cands {
		if sub.WebhookURL == "" || !sub.Matches(ev) {
			continue
		}
		if !m.tenantAllows(sub, ev) {
			continue
		}
		a := a
		a.Subscription = sub.ID
		m.disp.dispatch(ctx, sub, a, it.acceptedAt)
	}
}

// tenantAllows applies a tenant-scoped subscription's ICP filter. The
// profile is looked up at dispatch time, never cached on the
// subscription, so an ICP update applies to the very next event — a
// stale profile can never route an alert. Missing registry or profile
// fails closed: a tenant-scoped subscription without a resolvable ICP
// delivers nothing.
func (m *Manager) tenantAllows(sub Subscription, ev rank.Event) bool {
	if sub.Tenant == "" {
		return true
	}
	if m.cfg.Tenants == nil {
		m.met.tenantMissing.Inc()
		return false
	}
	p, _, err := m.cfg.Tenants.Get(sub.Tenant)
	if err != nil {
		m.met.tenantMissing.Inc()
		return false
	}
	var c *kb.Company
	if m.cfg.KB != nil {
		if cc, ok := m.cfg.KB.Lookup(ev.Company); ok {
			c = cc
		}
	}
	if !p.MatchCompany(c) {
		m.met.tenantFiltered.Inc()
		return false
	}
	return true
}

// Health reports the subsystem's load for /healthz.
type Health struct {
	// QueueDepth and QueueCap describe the ingest queue; depth at cap
	// means new documents are being rejected.
	QueueDepth int `json:"ingest_queue_depth"`
	QueueCap   int `json:"ingest_queue_cap"`
	// DeadLetters is the dead-letter buffer occupancy.
	DeadLetters int `json:"dead_letters"`
	// Subscriptions is the live subscription count.
	Subscriptions int `json:"subscriptions"`
	// SSEClients is the connected /alerts/stream count.
	SSEClients int `json:"sse_clients"`
	// DeliveryLagP99 is the observed p99 end-to-end delivery lag in
	// seconds (ingest accept → webhook 2xx); 0 until a delivery lands.
	DeliveryLagP99 float64 `json:"delivery_lag_p99_seconds"`
	// DeliveryLagSLO is the configured p99 budget in seconds; 0 means
	// the SLO check is off.
	DeliveryLagSLO float64 `json:"delivery_lag_slo_seconds,omitempty"`
}

// Reasons the subsystem reports itself degraded.
const (
	DegradedQueueSaturated = "ingest-queue-saturated"
	DegradedDeadLetters    = "dead-letters-pending"
	DegradedDeliveryLag    = "delivery-lag-slo-exceeded"
)

// Degraded lists why the subsystem is unhealthy; empty means healthy.
func (h Health) Degraded() []string {
	var out []string
	if h.QueueCap > 0 && h.QueueDepth >= h.QueueCap {
		out = append(out, DegradedQueueSaturated)
	}
	if h.DeadLetters > 0 {
		out = append(out, DegradedDeadLetters)
	}
	if h.DeliveryLagSLO > 0 && h.DeliveryLagP99 > h.DeliveryLagSLO {
		out = append(out, DegradedDeliveryLag)
	}
	return out
}

// Health snapshots the subsystem's load.
func (m *Manager) Health() Health {
	return Health{
		QueueDepth:     int(m.queueDepth()),
		QueueCap:       len(m.parts) * m.cfg.QueueSize,
		DeadLetters:    m.disp.dead.len(),
		Subscriptions:  m.subs.Len(),
		SSEClients:     m.bcast.Clients(),
		DeliveryLagP99: m.met.deliveryLag.Quantile(0.99),
		DeliveryLagSLO: m.cfg.LagSLO.Seconds(),
	}
}

// Flush blocks until every accepted document is fully processed and
// every dispatched alert is terminal (delivered or dead-lettered), or
// ctx expires. A test helper and a shutdown aid; new documents may
// keep arriving while it waits.
func (m *Manager) Flush(ctx context.Context) error {
	for m.pending.Load() > 0 || m.disp.pending.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Close drains and stops the subsystem: the ingest partitions stop
// accepting, consumers finish what was queued, delivery workers drain
// their lanes (in-flight webhook attempts still honour the Start
// context), and the attached WAL — every processed sequence committed
// — is flushed and closed. Idempotent.
func (m *Manager) Close() {
	m.closeMu.Lock()
	if m.closed {
		m.closeMu.Unlock()
		return
	}
	m.closed = true
	for _, p := range m.parts {
		close(p.ch)
	}
	m.closeMu.Unlock()
	if m.launched.Load() {
		m.wg.Wait()
	}
	m.disp.close()
	if m.wal != nil {
		if err := m.wal.Close(); err != nil {
			m.cfg.Log.Warn("alert: closing wal", "err", err)
		}
	}
}
