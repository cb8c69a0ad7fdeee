package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"
)

// errTooFewSamples reports a quantile asked of too small a sample: at
// least ten samples must lie beyond the quantile, so a median needs 20
// and a p99 needs 1,000.
var errTooFewSamples = errors.New("too few samples")

// minSamples is the smallest sample count quantile q is reported from.
func minSamples(q float64) int {
	return int(math.Ceil(10/(1-q) - 1e-9))
}

// quantile returns the nearest-rank q-quantile of xs, refusing sample
// sets with fewer than minSamples(q) values.
func quantile(xs []float64, q float64) (float64, error) {
	if need := minSamples(q); len(xs) < need {
		return 0, fmt.Errorf("%w: q=%g has %d samples, needs %d", errTooFewSamples, q, len(xs), need)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

// maxSlices caps the time slices windowedP99 takes a median over.
const maxSlices = 100

// windowedP99 splits samples by when they were taken (at, offsets
// within a window of length span) into the most equal time slices —
// at most maxSlices — that each hold enough samples for a p99, and returns
// the median of the slices' p99s: one stall on a shared machine moves
// one slice, not the result. With fewer than two such slices it is
// the plain p99.
func windowedP99(xs []float64, at []time.Duration, span time.Duration) (float64, []float64, error) {
	k := len(xs) / minSamples(0.99)
	if k > maxSlices {
		k = maxSlices
	}
	for ; k >= 2; k-- {
		slices := make([][]float64, k)
		for i, x := range xs {
			j := int(int64(at[i]) * int64(k) / int64(span))
			if j >= k {
				j = k - 1
			}
			if j < 0 {
				j = 0
			}
			slices[j] = append(slices[j], x)
		}
		var p99s []float64
		for _, s := range slices {
			v, err := quantile(s, 0.99)
			if err != nil {
				break
			}
			p99s = append(p99s, v)
		}
		if len(p99s) == k {
			return median(p99s), p99s, nil
		}
	}
	v, err := quantile(xs, 0.99)
	return v, []float64{v}, err
}

// median is the plain median of a small set of repeated measurements
// (set-up times), where the sample-count guard does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit and the number of samples
// behind it (1 for a single measurement, 0 for a layer the workload did
// not exercise).
type metric struct {
	Value float64
	Unit  string
	N     int
}

// report collects a run's metrics, its operation tally, and every
// failed operation; one failed operation makes the run incorrect.
type report struct {
	metrics   map[string]metric
	order     []string
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string, n int) {
	if !metricName.MatchString(name) {
		panic("etapbench: bad metric name " + name)
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// timing reports name.p50 and name.p99 from samples. A quantile the
// sample count cannot support is reported as 0 with its count, and the
// refusal is noted; an empty set means the layer did no work here.
func (r *report) timing(name, unit string, xs []float64) {
	for _, q := range []struct {
		suffix string
		q      float64
	}{{".p50", 0.5}, {".p99", 0.99}} {
		v, err := quantile(xs, q.q)
		if err != nil && len(xs) > 0 {
			r.note("%s%s not reported: %v", name, q.suffix, err)
		}
		r.set(name+q.suffix, v, unit, len(xs))
	}
}

// setP99 reports p99_ms as the median of per-slice p99s over the
// measured window (see windowedP99); at holds offsets from the start
// of the warm-up.
func (r *report) setP99(xs []float64, at []time.Duration, warm time.Duration, seconds float64) {
	shifted := make([]time.Duration, len(at))
	for i, a := range at {
		shifted[i] = a - warm
	}
	v, slices, err := windowedP99(xs, shifted, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		r.note("p99_ms not reported: %v", err)
	}
	r.set("p99_ms", v, "ms", len(xs))
	r.note("p99_ms is the median of %d slice p99s: %.3g", len(slices), slices)
}

// fail records a failed operation: a refused request, a lost alert or
// a failed correctness check (the first few are printed).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints every metric with its unit and sample count, then — as
// the last line — the JSON result restricted to the declared metrics in
// want, each in its declared unit.
func (r *report) write(w io.Writer, want []metricSpec) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# note %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED %s\n", p)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "# metric %-40s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	out := map[string]any{}
	var missing []string
	for _, spec := range want {
		m, ok := r.metrics[spec.name]
		if !ok || m.Unit != spec.unit {
			missing = append(missing, spec.name)
			continue
		}
		out[spec.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured in their declared unit: %s", strings.Join(missing, ", "))
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
