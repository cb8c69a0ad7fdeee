package main

import (
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// window brackets a run's load: process CPU, Go heap and GC
// statistics and the daemon's /debug/vars counters from the start of
// the schedule, whose measured seconds begin warm after its origin t0.
type window struct {
	t0     time.Time // the schedule's origin; operation offsets count from here
	warm   time.Duration
	wall0  time.Time
	cpu0   time.Duration
	gcCPU  float64
	ms0    runtime.MemStats
	vars   map[string]any
	steal0 [2]uint64
	tog    *toggler
}

// windowStats is the difference across a window.
type windowStats struct {
	wall      time.Duration
	cpu       time.Duration
	gcCPU     time.Duration // the Go runtime's estimate of CPU spent in GC
	allocB    uint64
	gcPauseMS []float64
	vars0     map[string]any
	vars1     map[string]any
	// steal is the share of the machine's CPU time its hypervisor gave
	// to other guests during the window: timings from a window with
	// much steal are not comparable to one without.
	steal float64
}

// startWindow opens the window of a schedule that starts shortly from
// now, spends warm seconds warming up and then measures for the run's
// --seconds.
func (b *bench) startWindow(d *daemon, warm float64) *window {
	// Start every run from a collected heap, so set-up garbage does not
	// decide when the window's first GC cycles fall.
	runtime.GC()
	w := &window{vars: fetchVars(d), warm: time.Duration(warm * float64(time.Second))}
	runtime.ReadMemStats(&w.ms0)
	w.steal0 = stealTicks()
	w.wall0 = time.Now()
	w.cpu0 = cpuTime()
	w.gcCPU = gcCPUSeconds()
	w.t0 = w.wall0.Add(10 * time.Millisecond)
	w.tog = b.hooks.toggle(w.t0.Add(w.warm), time.Duration(b.opts.seconds*float64(time.Second)))
	return w
}

// endWindow closes the window once the workload's operations are done,
// before any of its checks run: the peak resident set is read here, so
// the checks' own memory is not in it.
func (b *bench) endWindow(d *daemon, w *window) windowStats {
	st := windowStats{wall: time.Since(w.wall0), cpu: cpuTime() - w.cpu0, vars0: w.vars}
	st.gcCPU = time.Duration((gcCPUSeconds() - w.gcCPU) * float64(time.Second))
	s := stealTicks()
	st.steal = ratio(float64(s[0]-w.steal0[0]), float64(s[1]-w.steal0[1]))
	b.rep.set("machine.steal_share", st.steal, "ratio", 1)
	b.rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.allocB = ms.TotalAlloc - w.ms0.TotalAlloc
	for n := w.ms0.NumGC; n < ms.NumGC && ms.NumGC-n <= uint32(len(ms.PauseNs)); n++ {
		st.gcPauseMS = append(st.gcPauseMS, float64(ms.PauseNs[n%uint32(len(ms.PauseNs))])/1e6)
	}
	st.vars1 = fetchVars(d)
	w.tog.wait()
	return st
}

// stealTicks reads the machine's stolen and total CPU ticks from
// /proc/stat; zeros where it is not available.
func stealTicks() [2]uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return [2]uint64{}
	}
	var out [2]uint64
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return [2]uint64{}
		}
		if i == 7 {
			out[0] = v
		}
		if i < 8 { // guest time is already counted in user time
			out[1] += v
		}
	}
	return out
}

// gcCPUSeconds is the runtime's cumulative estimate of CPU time spent
// on garbage collection.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// liveHeapMB is the heap the last GC cycle found live.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// fetchVars reads the daemon's /debug/vars registry snapshot.
func fetchVars(d *daemon) map[string]any {
	out := map[string]any{}
	code, body, err := do(probe, http.MethodGet, d.url+"/debug/vars", nil)
	if err != nil || code != http.StatusOK {
		return out
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return map[string]any{}
	}
	return out
}

// delta is a counter's increase across the window; for a histogram
// series it is the increase of its observation count.
func (st windowStats) delta(key string) float64 {
	return varValue(st.vars1[key]) - varValue(st.vars0[key])
}

// sumDelta is a histogram series' increase in observed sum.
func (st windowStats) sumDelta(key string) float64 {
	return histSum(st.vars1[key]) - histSum(st.vars0[key])
}

func varValue(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case map[string]any:
		c, _ := x["count"].(float64)
		return c
	}
	return 0
}

func histSum(v any) float64 {
	if m, ok := v.(map[string]any); ok {
		s, _ := m["sum"].(float64)
		return s
	}
	return 0
}
