package obs

import (
	"io"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("Value() = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count() = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-106) > 1e-9 {
		t.Fatalf("Sum() = %v, want 106", got)
	}
	// Cumulative: ≤1 holds {0.5, 1}; ≤2 adds {1.5}; ≤4 adds {3}; +Inf = Count.
	want := []uint64{2, 3, 4}
	got := h.snapshotBuckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExponentialBuckets = %v, want %v", got, want)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "other help ignored")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	// Label order must not matter.
	l1 := r.Counter("y_total", "h", "a", "1", "b", "2")
	l2 := r.Counter("y_total", "h", "b", "2", "a", "1")
	if l1 != l2 {
		t.Fatal("label order should not create distinct series")
	}
	l3 := r.Counter("y_total", "h", "a", "other")
	if l1 == l3 {
		t.Fatal("different label values must be distinct series")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("z_total", "h")
}

// TestPrometheusGolden pins the exact text exposition format.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests served.").Add(3)
	r.Counter("app_hits_total", "Hits by path.", "path", "/a").Inc()
	r.Counter("app_hits_total", "Hits by path.", "path", "/b").Add(2)
	r.Gauge("app_queue_depth", "Queue depth.").Set(7)
	// Powers of two keep the sum exact in binary, so the golden string
	// is stable: 0.0625 + 0.5 + 5 = 5.5625.
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total 3
# HELP app_hits_total Hits by path.
# TYPE app_hits_total counter
app_hits_total{path="/a"} 1
app_hits_total{path="/b"} 2
# HELP app_queue_depth Queue depth.
# TYPE app_queue_depth gauge
app_queue_depth 7
# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 1
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 5.5625
app_latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h").Add(2)
	r.GaugeFunc("g", "h", func() float64 { return 1.5 })
	r.Histogram("h_seconds", "h", []float64{1}).Observe(0.5)

	snap := r.Snapshot()
	if snap["c_total"] != uint64(2) {
		t.Fatalf("counter snapshot = %v", snap["c_total"])
	}
	if snap["g"] != 1.5 {
		t.Fatalf("gauge func snapshot = %v", snap["g"])
	}
	hs, ok := snap["h_seconds"].(HistogramSnapshot)
	if !ok || hs.Count != 1 || hs.Buckets[0].Count != 1 {
		t.Fatalf("histogram snapshot = %#v", snap["h_seconds"])
	}
}

// TestConcurrentUpdates hammers one registry from many goroutines; run
// under -race this is the data-race gate for the whole metrics layer.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines, each = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Re-resolving handles concurrently exercises the registry's
				// read path, not just the atomics.
				r.Counter("cc_total", "h").Inc()
				r.Gauge("gg", "h").Add(1)
				r.Histogram("hh_seconds", "h", []float64{1e-3, 1}).Observe(1e-4)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("cc_total", "h").Value(); got != goroutines*each {
		t.Fatalf("counter = %d, want %d", got, goroutines*each)
	}
	if got := r.Gauge("gg", "h").Value(); got != goroutines*each {
		t.Fatalf("gauge = %d, want %d", got, goroutines*each)
	}
	h := r.Histogram("hh_seconds", "h", nil)
	if got := h.Count(); got != goroutines*each {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*each)
	}
	if got := h.snapshotBuckets()[0]; got != goroutines*each {
		t.Fatalf("first bucket = %d, want %d", got, goroutines*each)
	}
}

// TestConcurrentScrapeAndRegister races /metrics- and /debug/vars-style
// scrapes against lazy series creation (a new label value registering a
// series mid-scrape, like the first 4xx response creating a new
// etap_http_responses_total{code=...}). Run under -race this guards the
// registry's series-slice copy in snapshotFamilies.
func TestConcurrentScrapeAndRegister(t *testing.T) {
	r := NewRegistry()
	const goroutines, each = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				code := strconv.Itoa(g*each + i)
				r.Counter("responses_total", "h", "code", code).Inc()
				r.Histogram("latency_seconds", "h", nil, "code", code).Observe(1e-3)
			}
		}(g)
	}
	done := make(chan struct{})
	var scrapes sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-done:
					return
				default:
					if err := r.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
						return
					}
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapes.Wait()
	if got := len(r.Snapshot()); got != goroutines*each*2 {
		t.Fatalf("series after concurrent registration = %d, want %d", got, goroutines*each*2)
	}
}

// TestHistogramBoundsRace races the first registrations of one family
// with different bucket layouts: every resulting series must share the
// family's authoritative bounds, whichever registration won.
func TestHistogramBoundsRace(t *testing.T) {
	r := NewRegistry()
	layouts := [][]float64{{0.1, 1}, {0.5, 5, 50}, {1, 2, 4, 8}}
	var wg sync.WaitGroup
	hs := make([]*Histogram, 12)
	for i := range hs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hs[i] = r.Histogram("contended_seconds", "h",
				layouts[i%len(layouts)], "worker", strconv.Itoa(i))
		}(i)
	}
	wg.Wait()
	want := hs[0].Bounds()
	for i, h := range hs {
		got := h.Bounds()
		if len(got) != len(want) {
			t.Fatalf("series %d has %d bounds, series 0 has %d — family bounds diverged", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("series %d bounds[%d] = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestStageMetrics(t *testing.T) {
	r := NewRegistry()
	for _, items := range []uint64{10, 5} {
		StageDuration(r, "classify").Observe(0.001)
		StageItems(r, "classify").Add(items)
	}
	if got := StageDuration(r, "classify").Count(); got != 2 {
		t.Fatalf("registry histogram count = %d, want 2", got)
	}
	if got := StageItems(r, "classify").Value(); got != 15 {
		t.Fatalf("registry items = %d, want 15", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		StageDurationMetric + `_count{stage="classify"} 2`,
		StageItemsMetric + `{stage="classify"} 15`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}

	// A nil registry means Default.
	before, beforeItems := StageDuration(Default, "orphan").Count(), StageItems(Default, "orphan").Value()
	StageDuration(nil, "orphan").Observe(0.001)
	StageItems(nil, "orphan").Inc()
	if got := StageDuration(Default, "orphan").Count(); got != before+1 {
		t.Fatalf("default-registry count = %d, want %d", got, before+1)
	}
	if got := StageItems(Default, "orphan").Value(); got != beforeItems+1 {
		t.Fatalf("default-registry items = %d, want %d", got, beforeItems+1)
	}
}

func TestParseLogLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "Error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Fatal("ParseLogLevel(loud) should error")
	}
}
