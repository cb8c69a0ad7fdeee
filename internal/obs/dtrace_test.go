package obs

import (
	"bytes"
	"context"
	"log/slog"
	"regexp"
	"strings"
	"testing"
	"time"
)

// testTracer builds a deterministic tracer: seeded IDs and a stepping
// clock advancing `step` per reading.
func testTracer(t *testing.T, cfg TracerConfig, step time.Duration) *Tracer {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.Clock == nil {
		now := time.Unix(1_700_000_000, 0)
		cfg.Clock = func() time.Time {
			now = now.Add(step)
			return now
		}
	}
	return NewTracer(cfg)
}

var (
	hex32 = regexp.MustCompile(`^[0-9a-f]{32}$`)
	hex16 = regexp.MustCompile(`^[0-9a-f]{16}$`)
)

func TestTraceIDsAndTraceparentFormat(t *testing.T) {
	tr := testTracer(t, TracerConfig{SampleRate: 1}, time.Millisecond)
	dt, root := tr.StartTrace("ingest")
	if !hex32.MatchString(dt.ID()) {
		t.Fatalf("trace ID %q is not 32 hex digits", dt.ID())
	}
	sc := root.Context()
	if !hex16.MatchString(sc.SpanID.String()) {
		t.Fatalf("span ID %q is not 16 hex digits", sc.SpanID.String())
	}
	want := "00-" + dt.ID() + "-" + sc.SpanID.String() + "-01"
	if got := sc.TraceParent(); got != want {
		t.Fatalf("traceparent = %q, want %q", got, want)
	}
	root.End()
}

func TestSpanTreeParentChild(t *testing.T) {
	tr := testTracer(t, TracerConfig{SampleRate: 1}, time.Millisecond)
	dt, root := tr.StartTrace("ingest")
	child := root.Child("extract")
	grand := child.Child("classify")
	grand.SetAttr("driver", "ma")
	grand.End()
	child.End()
	root.End()

	tv, ok := tr.Get(dt.ID())
	if !ok {
		t.Fatal("completed trace not retained at sample rate 1")
	}
	if len(tv.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tv.Spans))
	}
	if tv.Spans[0].Parent != "" {
		t.Fatalf("root span has parent %q", tv.Spans[0].Parent)
	}
	if tv.Spans[1].Parent != tv.Spans[0].ID {
		t.Fatalf("child parent = %q, want root %q", tv.Spans[1].Parent, tv.Spans[0].ID)
	}
	if tv.Spans[2].Parent != tv.Spans[1].ID {
		t.Fatalf("grandchild parent = %q, want child %q", tv.Spans[2].Parent, tv.Spans[1].ID)
	}
	if tv.Spans[2].Attrs["driver"] != "ma" {
		t.Fatalf("grandchild attrs = %v, want driver=ma", tv.Spans[2].Attrs)
	}
	if tv.Status != "ok" {
		t.Fatalf("status = %q, want ok", tv.Status)
	}
	for _, sp := range tv.Spans {
		if !sp.End.After(sp.Start) {
			t.Fatalf("span %s end %v not after start %v", sp.Name, sp.End, sp.Start)
		}
	}
}

func TestTraceCompletesOnLastSpanEnd(t *testing.T) {
	tr := testTracer(t, TracerConfig{SampleRate: 1}, time.Millisecond)
	dt, root := tr.StartTrace("ingest")
	child := root.Child("dispatch")
	root.End()
	if tr.Len() != 0 {
		t.Fatal("trace retained while a span is still open")
	}
	child.End()
	if _, ok := tr.Get(dt.ID()); !ok {
		t.Fatal("trace not retained after its last span ended")
	}
}

func TestTailSamplingRetainsErrorsAndSlow(t *testing.T) {
	reg := NewRegistry()
	tr := testTracer(t, TracerConfig{
		SampleRate:    0, // drop every healthy trace
		SlowThreshold: 50 * time.Millisecond,
		Registry:      reg,
	}, time.Millisecond)

	// Healthy and fast: dropped.
	_, fast := tr.StartTrace("fast")
	fast.End()
	if tr.Len() != 0 {
		t.Fatal("healthy fast trace retained at sample rate 0")
	}

	// Failed: always retained.
	dtErr, bad := tr.StartTrace("bad")
	bad.Fail("boom")
	bad.End()
	tv, ok := tr.Get(dtErr.ID())
	if !ok {
		t.Fatal("errored trace dropped by tail sampling")
	}
	if tv.Status != "error" || tv.Spans[0].Error != "boom" {
		t.Fatalf("errored trace view = %+v", tv)
	}

	// Slow (each clock reading advances 1ms; 60 children ≫ 50ms cut):
	// always retained.
	dtSlow, slow := tr.StartTrace("slow")
	for i := 0; i < 60; i++ {
		slow.Child("step").End()
	}
	slow.End()
	if _, ok := tr.Get(dtSlow.ID()); !ok {
		t.Fatal("slow trace dropped by tail sampling")
	}
}

func TestTailSamplingRateOneKeepsAll(t *testing.T) {
	tr := testTracer(t, TracerConfig{SampleRate: 1}, time.Millisecond)
	for i := 0; i < 10; i++ {
		_, root := tr.StartTrace("t")
		root.End()
	}
	if tr.Len() != 10 {
		t.Fatalf("retained %d traces, want 10 at sample rate 1", tr.Len())
	}
}

func TestTraceStoreRingEvictsOldest(t *testing.T) {
	tr := testTracer(t, TracerConfig{Capacity: 2, SampleRate: 1}, time.Millisecond)
	var ids []string
	for i := 0; i < 3; i++ {
		dt, root := tr.StartTrace("t")
		ids = append(ids, dt.ID())
		root.End()
	}
	if tr.Len() != 2 {
		t.Fatalf("store holds %d, want capacity 2", tr.Len())
	}
	if _, ok := tr.Get(ids[0]); ok {
		t.Fatal("oldest trace not evicted")
	}
	if _, ok := tr.Get(ids[2]); !ok {
		t.Fatal("newest trace missing")
	}
	list := tr.List(TraceFilter{})
	if len(list) != 2 || list[0].ID != ids[2] || list[1].ID != ids[1] {
		t.Fatalf("List order = %+v, want newest first %v then %v", list, ids[2], ids[1])
	}
}

func TestListFilters(t *testing.T) {
	tr := testTracer(t, TracerConfig{SampleRate: 1}, time.Millisecond)
	_, ok1 := tr.StartTrace("quick")
	ok1.End()
	_, bad := tr.StartTrace("broken")
	bad.Fail("x")
	bad.End()
	_, slow := tr.StartTrace("slow")
	for i := 0; i < 30; i++ {
		slow.Child("step").End()
	}
	slow.End()

	if got := len(tr.List(TraceFilter{})); got != 3 {
		t.Fatalf("unfiltered = %d, want 3", got)
	}
	errs := tr.List(TraceFilter{Status: "error"})
	if len(errs) != 1 || errs[0].Name != "broken" {
		t.Fatalf("status=error list = %+v", errs)
	}
	longs := tr.List(TraceFilter{MinDuration: 20 * time.Millisecond})
	if len(longs) != 1 || longs[0].Name != "slow" {
		t.Fatalf("min-duration list = %+v", longs)
	}
}

func TestSpanCapDetachesNotCrashes(t *testing.T) {
	tr := testTracer(t, TracerConfig{SampleRate: 1}, time.Millisecond)
	dt, root := tr.StartTrace("big")
	for i := 0; i < maxTraceSpans+10; i++ {
		sp := root.Child("s")
		if sp != nil {
			// Detached spans past the cap still mint usable IDs.
			if sp.Context().TraceID.IsZero() {
				t.Fatal("detached span lost its trace ID")
			}
		}
		sp.End()
	}
	root.End()
	tv, ok := tr.Get(dt.ID())
	if !ok {
		t.Fatal("capped trace not retained")
	}
	if len(tv.Spans) != maxTraceSpans {
		t.Fatalf("recorded %d spans, want cap %d", len(tv.Spans), maxTraceSpans)
	}
	if tv.TruncatedSpans != 11 {
		t.Fatalf("truncated = %d, want 11", tv.TruncatedSpans)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	dt, root := tr.StartTrace("ingest")
	if dt != nil || root != nil {
		t.Fatal("nil tracer minted a trace")
	}
	if dt.ID() != "" {
		t.Fatalf("nil trace ID = %q", dt.ID())
	}
	// Every downstream call must tolerate the nils.
	root.SetAttr("k", "v")
	root.Fail("x")
	child := root.Child("c")
	child.End()
	root.End()
	if tr.Len() != 0 || tr.List(TraceFilter{}) != nil {
		t.Fatal("nil tracer retained something")
	}
	if _, ok := tr.Get("x"); ok {
		t.Fatal("nil tracer resolved a trace")
	}
}

func TestContextPlumbing(t *testing.T) {
	tr := testTracer(t, TracerConfig{SampleRate: 1}, time.Millisecond)
	_, root := tr.StartTrace("ingest")
	ctx := ContextWithDSpan(context.Background(), root)
	if DSpanFrom(ctx) != root {
		t.Fatal("DSpanFrom did not return the attached span")
	}
	sc, ok := SpanContextFrom(ctx)
	if !ok || sc != root.Context() {
		t.Fatalf("SpanContextFrom = %+v, %v", sc, ok)
	}
	cctx, child := StartDSpan(ctx, "extract")
	if child == nil || DSpanFrom(cctx) != child {
		t.Fatal("StartDSpan did not attach the child")
	}
	child.End()
	root.End()

	// Bare context: no span, no allocation of one.
	bctx, none := StartDSpan(context.Background(), "extract")
	if none != nil || DSpanFrom(bctx) != nil {
		t.Fatal("StartDSpan invented a span on a bare context")
	}
	if _, ok := SpanContextFrom(context.Background()); ok {
		t.Fatal("SpanContextFrom found a span on a bare context")
	}
}

func TestTraceHandlerStampsLogLines(t *testing.T) {
	tr := testTracer(t, TracerConfig{SampleRate: 1}, time.Millisecond)
	_, root := tr.StartTrace("ingest")
	defer root.End()
	ctx := ContextWithDSpan(context.Background(), root)

	var buf bytes.Buffer
	log := slog.New(NewTraceHandler(slog.NewTextHandler(&buf, nil)))
	log.InfoContext(ctx, "processing")
	line := buf.String()
	sc := root.Context()
	if !strings.Contains(line, "trace_id="+sc.TraceID.String()) {
		t.Fatalf("log line missing trace_id: %s", line)
	}
	if !strings.Contains(line, "span_id="+sc.SpanID.String()) {
		t.Fatalf("log line missing span_id: %s", line)
	}

	buf.Reset()
	log.Info("no span")
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("span-less log line grew a trace_id: %s", buf.String())
	}

	// WithAttrs/WithGroup must preserve the wrapper.
	buf.Reset()
	log.With("k", "v").WithGroup("g").InfoContext(ctx, "grouped")
	if !strings.Contains(buf.String(), "trace_id=") {
		t.Fatalf("derived logger lost the trace wrapper: %s", buf.String())
	}
}

func TestTracerMetrics(t *testing.T) {
	reg := NewRegistry()
	tr := testTracer(t, TracerConfig{SampleRate: 0, Registry: reg}, time.Millisecond)
	_, a := tr.StartTrace("a")
	a.End() // healthy → discarded
	_, b := tr.StartTrace("b")
	b.Fail("x")
	b.End() // errored → retained
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"etap_trace_started_total 2",
		`etap_trace_retained_total{reason="error"} 1`,
		"etap_trace_discarded_total 1",
		"etap_trace_store_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestDeterministicSeedReproducesIDs(t *testing.T) {
	mk := func() []string {
		tr := testTracer(t, TracerConfig{SampleRate: 1, Seed: 7}, time.Millisecond)
		var out []string
		for i := 0; i < 3; i++ {
			dt, root := tr.StartTrace("t")
			out = append(out, dt.ID(), root.Context().SpanID.String())
			root.End()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded run diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{0.1, 0.5, 1, 5})
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}
	// 90 fast, 10 slow: p50 lands in the first bucket, p99 in (1, 5].
	for i := 0; i < 90; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 10; i++ {
		h.Observe(2)
	}
	if got := h.Quantile(0.5); got <= 0 || got > 0.1 {
		t.Fatalf("p50 = %v, want within (0, 0.1]", got)
	}
	if got := h.Quantile(0.99); got <= 1 || got > 5 {
		t.Fatalf("p99 = %v, want within (1, 5]", got)
	}
	// Values past every finite bound clamp to the last finite bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 1 {
		t.Fatalf("overflow-bucket p99 = %v, want clamp to 1", got)
	}
}
