package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	gen := func(seed int64) [][]byte {
		bodies, err := ingestBodies(streamDocs(seed, 120, "t"))
		if err != nil {
			t.Fatal(err)
		}
		return bodies
	}
	a, b, c := gen(3), gen(3), gen(4)
	same := true
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("document %d differs between two generations with seed 3", i)
		}
		same = same && bytes.Equal(a[i], c[i])
	}
	if same {
		t.Fatal("seeds 3 and 4 generated the same documents")
	}

	v := vocab{companies: []string{"Acme Corp", "Globex"}, smart: []string{`"new ceo"`}, words: []string{"acquired", "revenue", "growth"}}
	if !reflect.DeepEqual(queryStream(5, v, 4, 500), queryStream(5, v, 4, 500)) {
		t.Fatal("query stream differs between two generations with seed 5")
	}
	if reflect.DeepEqual(queryStream(5, v, 4, 500), queryStream(6, v, 4, 500)) {
		t.Fatal("seeds 5 and 6 generated the same query stream")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-] or is too long", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json at the
// repository root in step with the metrics the benchmark reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []entry
		want []metricSpec
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.name, len(c.got), len(c.want))
		}
		for i, w := range c.want {
			g := c.got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the benchmark reports %s %s %s",
					c.name, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	declared := map[string]bool{}
	for _, w := range bj.Workloads {
		declared[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	// ingest runs by hand only: at its load the daemon loses alerts
	// (README.md).
	for name := range workloads {
		if !declared[name] && name != "ingest" {
			t.Errorf("the benchmark runs workload %q, which BENCHMARK.json does not name", name)
		}
	}
}

func TestQuantileSampleGuard(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := quantile(xs, 0.99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 of 999 samples: err = %v, want errTooFewSamples", err)
	}
	xs = append(xs, 1000)
	if v, err := quantile(xs, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := quantile(xs[:19], 0.5); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("median of 19 samples: err = %v, want errTooFewSamples", err)
	}
	if v, err := quantile(xs[:20], 0.5); err != nil || v != 10 {
		t.Fatalf("median of 1..20 = %v, %v; want 10", v, err)
	}
	// Windowed p99: 3,000 samples over 3 s fall into 3 slices; a stall
	// confined to one slice does not move the median of their p99s.
	lat := make([]float64, 3000)
	at := make([]time.Duration, 3000)
	for i := range lat {
		lat[i] = 1
		at[i] = time.Duration(i) * time.Millisecond
	}
	for i := 0; i < 100; i++ {
		lat[i] = 500
	}
	v, slices, err := windowedP99(lat, at, 3*time.Second)
	if err != nil || len(slices) != 3 || v != 1 {
		t.Fatalf("windowedP99 = %v over slices %v, %v; want 1 over 3 slices", v, slices, err)
	}
}

func TestFailedMakesRunIncorrect(t *testing.T) {
	r := newReport()
	r.attempted = 10
	r.fail("alert dead-lettered")
	var out bytes.Buffer
	if err := r.write(&out, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool
		Failed  int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("after a failed operation: correct=%t failed=%d, want false 1", res.Correct, res.Failed)
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// requires a correct result carrying every metric the mode reports.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts in-process daemons")
	}
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: name, seed: 2, seconds: 1, trace: trace, smoke: true}
			if err := runWorkload(o, fn, &out); err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line is not the JSON result: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
		}
	}
}
