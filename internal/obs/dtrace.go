// Distributed per-document tracing: the request-scoped complement to
// the aggregate stage metrics (StageDuration, StageItems). A Tracer mints one DTrace per document
// accepted by POST /ingest; the trace's span tree (parent/child IDs,
// wall-clock timestamps, status, attributes) follows the document
// through extraction, subscription matching, and every webhook
// delivery, and the pair (trace ID, span ID) renders as a W3C
// traceparent header on the outgoing request. Completed traces are
// tail-sampled into a bounded in-memory store — errors and slow
// traces always, healthy ones probabilistically — served by etapd at
// GET /debug/traces and GET /debug/traces/{id}.
//
// The D prefix (DTrace, DSpan) marks the distributed, per-document
// types.
package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"
	"time"
)

// TraceID identifies one distributed trace: 16 bytes rendered as 32
// hex digits, the W3C trace-context trace-id.
type TraceID [16]byte

// String renders the ID as 32 lower-case hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID identifies one span within a trace: 8 bytes rendered as 16
// hex digits, the W3C trace-context parent-id.
type SpanID [8]byte

// String renders the ID as 16 lower-case hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext names a position inside one trace — the pair a W3C
// traceparent header carries.
type SpanContext struct {
	// TraceID is the enclosing trace.
	TraceID TraceID
	// SpanID is the current span within it.
	SpanID SpanID
}

// TraceParent renders the context as a W3C traceparent header value
// (version 00, sampled flag set).
func (sc SpanContext) TraceParent() string {
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// splitmix64 advances *s and returns the next well-mixed 64-bit value.
// The caller owns synchronization of s.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// idSource is a locked splitmix64 stream: cheap, well-mixed 64-bit
// values for trace IDs and sampling decisions, reproducible from a
// seed. Span IDs do NOT come from here — each DTrace carries its own
// stream (seeded from this one) advanced under the trace's existing
// lock, so concurrent workers minting spans never contend on a global
// mutex.
type idSource struct {
	mu sync.Mutex
	s  uint64
}

func (g *idSource) next() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return splitmix64(&g.s)
}

// float01 draws a uniform value in [0, 1).
func (g *idSource) float01() float64 {
	return float64(g.next()>>11) / (1 << 53)
}

// TracerConfig tunes a Tracer. The zero value keeps 256 traces,
// retains no healthy traces (error and slow ones are always kept), and
// uses the wall clock.
type TracerConfig struct {
	// Capacity bounds the retained-trace store; 0 means 256. When full,
	// the oldest retained trace is evicted to admit the newest.
	Capacity int
	// SampleRate is the probability a completed healthy trace — no
	// failed span, not slow — survives tail sampling. 0 keeps none,
	// 1 keeps all; values outside [0, 1] clamp.
	SampleRate float64
	// SlowThreshold fixes the duration at or above which a completed
	// trace is always retained; 0 derives the cut adaptively as the p90
	// of recent completions (once enough have been seen).
	SlowThreshold time.Duration
	// Seed makes IDs and sampling decisions reproducible; 0 draws a
	// random seed per tracer.
	Seed int64
	// Clock supplies span timestamps; nil means time.Now.
	Clock func() time.Time
	// Registry receives the etap_trace_* series; nil means Default.
	Registry *Registry
}

// tracer tuning bounds.
const (
	defaultTraceCapacity = 256
	// maxTraceSpans caps one trace's span tree; spans past the cap are
	// detached (valid IDs, recorded nowhere) so a pathological fan-out
	// cannot grow a trace without bound.
	maxTraceSpans = 512
	// slowWindow is how many recent completions feed the adaptive slow
	// cut; slowMinSamples gates it and slowEvery paces recomputation.
	slowWindow     = 128
	slowMinSamples = 32
	slowEvery      = 16
)

// Tracer mints per-document traces and tail-samples completed ones
// into a bounded store. Safe for concurrent use; a nil *Tracer is a
// valid no-op (StartTrace returns nils, and every DTrace/DSpan method
// tolerates nil receivers), so call sites need no enabled/disabled
// branches.
type Tracer struct {
	clock      func() time.Time
	sampleRate float64
	fixedSlow  time.Duration
	ids        idSource

	mu          sync.Mutex
	store       []*DTrace // ring buffer, capacity len(store)
	head        int       // next write slot
	n           int       // live entries
	recent      [slowWindow]time.Duration
	scratch     [slowWindow]time.Duration // percentile workspace, avoids per-recompute allocation
	recentN     int
	completions uint64
	slowCut     time.Duration // current adaptive cut; 0 means not yet known

	started         *Counter
	retainedErr     *Counter
	retainedSlow    *Counter
	retainedSampled *Counter
	discarded       *Counter
	entries         *Gauge
}

// NewTracer builds a tracer from cfg.
func NewTracer(cfg TracerConfig) *Tracer {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	clock := cfg.Clock
	if clock == nil {
		//etaplint:ignore determinism -- wall-clock default for production; tests inject a fixed Clock
		clock = time.Now
	}
	rate := cfg.SampleRate
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	reg := cfg.Registry
	if reg == nil {
		reg = Default
	}
	t := &Tracer{
		clock:      clock,
		sampleRate: rate,
		fixedSlow:  cfg.SlowThreshold,
		store:      make([]*DTrace, capacity),
		started: reg.Counter("etap_trace_started_total",
			"Per-document traces minted."),
		retainedErr: reg.Counter("etap_trace_retained_total",
			"Completed traces kept by tail sampling, by reason.", "reason", "error"),
		retainedSlow: reg.Counter("etap_trace_retained_total",
			"Completed traces kept by tail sampling, by reason.", "reason", "slow"),
		retainedSampled: reg.Counter("etap_trace_retained_total",
			"Completed traces kept by tail sampling, by reason.", "reason", "sampled"),
		discarded: reg.Counter("etap_trace_discarded_total",
			"Completed healthy traces dropped by tail sampling."),
		entries: reg.Gauge("etap_trace_store_entries",
			"Traces currently retained in the store."),
	}
	seed := uint64(cfg.Seed)
	if cfg.Seed == 0 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			seed = binary.BigEndian.Uint64(b[:])
		} else {
			// crypto/rand failing is effectively fatal elsewhere; a fixed
			// fallback seed only risks colliding trace IDs, never safety.
			seed = 0x9e3779b97f4a7c15
		}
	}
	t.ids.s = seed
	return t
}

// StartTrace mints a new trace and its root span. On a nil Tracer both
// results are nil and the whole span-tree API degrades to no-ops.
func (t *Tracer) StartTrace(name string) (*DTrace, *DSpan) {
	if t == nil {
		return nil, nil
	}
	tr := &DTrace{tracer: t, name: name, start: t.clock()}
	t.ids.mu.Lock()
	binary.BigEndian.PutUint64(tr.id[:8], splitmix64(&t.ids.s))
	binary.BigEndian.PutUint64(tr.id[8:], splitmix64(&t.ids.s))
	tr.spanSeed = splitmix64(&t.ids.s)
	t.ids.mu.Unlock()
	tr.idHex = tr.id.String()
	tr.spans = make([]*DSpan, 0, 8)
	t.started.Inc()
	return tr, tr.newSpanAt(SpanID{}, name, tr.start)
}

// finish applies the tail-sampling decision to a completed trace.
func (t *Tracer) finish(tr *DTrace) {
	dur := tr.end.Sub(tr.start)
	t.mu.Lock()
	t.recent[int(t.completions)%slowWindow] = dur
	t.completions++
	if t.recentN < slowWindow {
		t.recentN++
	}
	if t.fixedSlow <= 0 && t.recentN >= slowMinSamples && t.completions%slowEvery == 0 {
		t.slowCut = t.percentileLocked(0.9)
	}
	slowAt := t.fixedSlow
	if slowAt <= 0 {
		slowAt = t.slowCut
	}
	var kept *Counter
	switch {
	case tr.failed:
		kept = t.retainedErr
	case slowAt > 0 && dur >= slowAt:
		kept = t.retainedSlow
	case t.sampleRate > 0 && t.ids.float01() < t.sampleRate:
		kept = t.retainedSampled
	}
	if kept == nil {
		t.mu.Unlock()
		t.discarded.Inc()
		return
	}
	t.store[t.head] = tr
	t.head = (t.head + 1) % len(t.store)
	if t.n < len(t.store) {
		t.n++
	}
	entries := t.n
	t.mu.Unlock()
	kept.Inc()
	t.entries.Set(int64(entries))
}

// percentileLocked computes the q-th percentile of the recent-duration
// window; callers hold t.mu.
func (t *Tracer) percentileLocked(q float64) time.Duration {
	tmp := t.scratch[:t.recentN]
	copy(tmp, t.recent[:t.recentN])
	slices.Sort(tmp)
	idx := int(q * float64(len(tmp)))
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// Len returns the number of retained traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// snapshot returns the retained traces, newest first.
func (t *Tracer) snapshot() []*DTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*DTrace, 0, t.n)
	for i := 0; i < t.n; i++ {
		idx := (t.head - 1 - i + len(t.store)) % len(t.store)
		out = append(out, t.store[idx])
	}
	return out
}

// TraceFilter selects retained traces for List.
type TraceFilter struct {
	// Status keeps only traces with this status ("ok" or "error");
	// empty keeps all.
	Status string
	// MinDuration keeps only traces at least this long.
	MinDuration time.Duration
}

// TraceSummary is one retained trace's List entry.
type TraceSummary struct {
	// ID is the hex trace ID (GET /debug/traces/{id} resolves it).
	ID string `json:"id"`
	// Name is the root span's name.
	Name string `json:"name"`
	// Start is when the trace began.
	Start time.Time `json:"start"`
	// DurationMS is first-span-start to last-span-end, in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Status is "error" when any span failed, else "ok".
	Status string `json:"status"`
	// SpanCount is the number of recorded spans.
	SpanCount int `json:"spans"`
}

// List returns summaries of retained traces matching the filter,
// newest first. A nil Tracer returns nil.
func (t *Tracer) List(f TraceFilter) []TraceSummary {
	if t == nil {
		return nil
	}
	var out []TraceSummary
	for _, tr := range t.snapshot() {
		s := tr.summary()
		if f.Status != "" && s.Status != f.Status {
			continue
		}
		if s.DurationMS < f.MinDuration.Seconds()*1e3 {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Get returns the full span tree of one retained trace by hex ID.
func (t *Tracer) Get(id string) (TraceView, bool) {
	if t == nil {
		return TraceView{}, false
	}
	for _, tr := range t.snapshot() {
		if tr.id.String() == id {
			return tr.view(), true
		}
	}
	return TraceView{}, false
}

// DTrace is one document's distributed trace: a tree of DSpans sharing
// a TraceID. It completes — and becomes a tail-sampling candidate —
// when its last open span ends.
type DTrace struct {
	tracer *Tracer
	id     TraceID
	idHex  string // id.String(), rendered once — the ID is re-read per alert/frame
	name   string
	start  time.Time

	mu        sync.Mutex
	spanSeed  uint64 // private splitmix64 stream for span IDs
	spans     []*DSpan
	truncated int
	open      int
	failed    bool
	done      bool
	end       time.Time
}

// ID returns the hex trace ID; "" on a nil trace.
func (t *DTrace) ID() string {
	if t == nil {
		return ""
	}
	return t.idHex
}

// newSpan opens a child span under parent. Past maxTraceSpans the span
// is detached: its IDs stay valid (traceparent still renders) but it
// is not recorded.
func (t *DTrace) newSpan(parent SpanID, name string) *DSpan {
	return t.newSpanAt(parent, name, t.tracer.clock())
}

func (t *DTrace) newSpanAt(parent SpanID, name string, start time.Time) *DSpan {
	sp := &DSpan{traceID: t.id, parent: parent, name: name, start: start}
	sp.attrs = sp.attrBuf[:0]
	t.mu.Lock()
	binary.BigEndian.PutUint64(sp.id[:], splitmix64(&t.spanSeed))
	if t.done || len(t.spans) >= maxTraceSpans {
		t.truncated++
		t.mu.Unlock()
		return sp
	}
	sp.tr = t
	t.spans = append(t.spans, sp)
	t.open++
	t.mu.Unlock()
	return sp
}

// spanEnded retires one open span ending at `at`; the last one out
// completes the trace and hands it to the tracer's tail sampler.
func (t *DTrace) spanEnded(failed bool, at time.Time) {
	t.mu.Lock()
	if failed {
		t.failed = true
	}
	t.open--
	complete := t.open == 0 && !t.done
	if complete {
		t.done = true
		t.end = at
	}
	t.mu.Unlock()
	if complete {
		t.tracer.finish(t)
	}
}

func (t *DTrace) status() string {
	if t.failed {
		return "error"
	}
	return "ok"
}

// summary builds the List entry; only called on completed traces.
func (t *DTrace) summary() TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceSummary{
		ID:         t.id.String(),
		Name:       t.name,
		Start:      t.start,
		DurationMS: t.end.Sub(t.start).Seconds() * 1e3,
		Status:     t.status(),
		SpanCount:  len(t.spans),
	}
}

// TraceView is one trace's full span tree — the GET /debug/traces/{id}
// document.
type TraceView struct {
	// ID is the hex trace ID.
	ID string `json:"id"`
	// Name is the root span's name.
	Name string `json:"name"`
	// Start is when the trace began.
	Start time.Time `json:"start"`
	// DurationMS is first-span-start to last-span-end, in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Status is "error" when any span failed, else "ok".
	Status string `json:"status"`
	// TruncatedSpans counts spans dropped past the per-trace cap.
	TruncatedSpans int `json:"truncated_spans,omitempty"`
	// Spans lists every recorded span in creation order; parent IDs
	// encode the tree (the root span has none).
	Spans []SpanView `json:"spans"`
}

// SpanView is one span of a TraceView.
type SpanView struct {
	// ID is the hex span ID.
	ID string `json:"id"`
	// Parent is the hex parent span ID; empty on the root.
	Parent string `json:"parent,omitempty"`
	// Name is the operation ("ingest", "extract", "webhook", ...).
	Name string `json:"name"`
	// Start and End bound the span's wall time.
	Start time.Time `json:"start"`
	// End is when the span ended.
	End time.Time `json:"end"`
	// DurationMS is the span's wall time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Status is "error" when the span failed, else "ok".
	Status string `json:"status"`
	// Error carries the failure message of a failed span.
	Error string `json:"error,omitempty"`
	// Attrs are the span's key/value annotations.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// view renders the span tree; only called on completed traces.
func (t *DTrace) view() TraceView {
	t.mu.Lock()
	spans := append([]*DSpan(nil), t.spans...)
	v := TraceView{
		ID:             t.id.String(),
		Name:           t.name,
		Start:          t.start,
		DurationMS:     t.end.Sub(t.start).Seconds() * 1e3,
		Status:         t.status(),
		TruncatedSpans: t.truncated,
	}
	t.mu.Unlock()
	for _, sp := range spans {
		v.Spans = append(v.Spans, sp.view())
	}
	return v
}

// DSpan is one timed operation within a DTrace. All methods tolerate a
// nil receiver, so call sites instrumenting a maybe-traced path need no
// branches.
type DSpan struct {
	tr      *DTrace // nil for detached (over-cap) spans
	traceID TraceID
	id      SpanID
	parent  SpanID
	name    string
	start   time.Time

	mu      sync.Mutex
	attrs   []Attr
	attrBuf [2]Attr // inline storage for the common ≤2-attr span: no extra allocation
	fail    bool
	errs    string
	done    bool
	end     time.Time
}

// Attr is one span annotation.
type Attr struct {
	// Key names the annotation.
	Key string
	// Value is its rendered value.
	Value string
}

// Context returns the span's position in its trace; the zero
// SpanContext on a nil span.
func (sp *DSpan) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.traceID, SpanID: sp.id}
}

// SetAttr annotates the span. Repeated keys append; views keep the
// first occurrence.
func (sp *DSpan) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
	sp.mu.Unlock()
}

// Fail marks the span (and therefore its trace) errored. The first
// message wins.
func (sp *DSpan) Fail(msg string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if !sp.fail {
		sp.fail = true
		sp.errs = msg
	}
	sp.mu.Unlock()
}

// Child opens a new span under this one. Returns nil on nil or
// detached receivers.
func (sp *DSpan) Child(name string) *DSpan {
	if sp == nil || sp.tr == nil {
		return nil
	}
	return sp.tr.newSpan(sp.id, name)
}

// End closes the span; the trace completes when its last open span
// ends. Ending twice is a no-op.
func (sp *DSpan) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.done {
		sp.mu.Unlock()
		return
	}
	sp.done = true
	if sp.tr != nil {
		sp.end = sp.tr.tracer.clock()
	}
	failed := sp.fail
	end := sp.end
	sp.mu.Unlock()
	if sp.tr != nil {
		sp.tr.spanEnded(failed, end)
	}
}

// view renders the span; spans in a completed trace are themselves
// done, but lock anyway so a racing SetAttr cannot tear the slice.
func (sp *DSpan) view() SpanView {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	v := SpanView{
		ID:         sp.id.String(),
		Name:       sp.name,
		Start:      sp.start,
		End:        sp.end,
		DurationMS: sp.end.Sub(sp.start).Seconds() * 1e3,
		Status:     "ok",
	}
	if !sp.parent.IsZero() {
		v.Parent = sp.parent.String()
	}
	if sp.fail {
		v.Status = "error"
		v.Error = sp.errs
	}
	if len(sp.attrs) > 0 {
		v.Attrs = make(map[string]string, len(sp.attrs))
		for _, a := range sp.attrs {
			if _, ok := v.Attrs[a.Key]; !ok {
				v.Attrs[a.Key] = a.Value
			}
		}
	}
	return v
}

// dspanKey carries the current DSpan through a context.
type dspanKey struct{}

// ContextWithDSpan returns ctx carrying sp as the current span;
// returns ctx unchanged on a nil span.
func ContextWithDSpan(ctx context.Context, sp *DSpan) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, dspanKey{}, sp)
}

// DSpanFrom returns the current span on ctx, or nil.
func DSpanFrom(ctx context.Context) *DSpan {
	sp, _ := ctx.Value(dspanKey{}).(*DSpan)
	return sp
}

// SpanContextFrom returns the trace position carried by ctx; ok is
// false when ctx has no span.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	sp := DSpanFrom(ctx)
	if sp == nil {
		return SpanContext{}, false
	}
	return sp.Context(), true
}

// StartDSpan opens a child of ctx's current span and returns a context
// carrying the child. Without a span on ctx it returns (ctx, nil) —
// with every DSpan method nil-safe, untraced paths pay one context
// lookup and nothing else.
func StartDSpan(ctx context.Context, name string) (context.Context, *DSpan) {
	cur := DSpanFrom(ctx)
	if cur == nil || cur.tr == nil {
		return ctx, nil
	}
	sp := cur.tr.newSpan(cur.id, name)
	return ContextWithDSpan(ctx, sp), sp
}
