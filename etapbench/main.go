// Command etapbench is ETAP's benchmark: it runs one workload against
// an in-process etapd, checks every output, and prints each metric by
// name, unit and sample count, ending with one JSON result line.
//
//	bash etapbench/run.sh --workload ingest|leads|search --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that wraps the interfaces the daemon accepts with timing shims, times
// direct calls into each layer, and reports the per-layer metrics.
// README.md describes the workloads and the metric catalogue.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every size so the whole workload runs in a few
	// seconds; only the tests set it.
	smoke bool
}

// bench is one run's shared state.
type bench struct {
	opts  options
	rep   *report
	tmp   string
	hooks *hooks // nil unless traced
	// setups holds the set-up phases of every daemon started.
	setups []phases
}

var workloads = map[string]func(*bench) error{
	"ingest": runIngest,
	"leads":  runLeads,
	"search": runSearch,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("etapbench", flag.ContinueOnError)
	var o options
	var trace int
	fl.StringVar(&o.workload, "workload", "", "workload: ingest, leads or search")
	fl.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed sends the same inputs")
	fl.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	fl.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	fn, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "etapbench: want --workload ingest|leads|search, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := runWorkload(o, fn, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "etapbench:", err)
		return 1
	}
	return 0
}

func runWorkload(o options, fn func(*bench) error, stdout io.Writer) error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	base := filepath.Join(wd, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(base, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	b := &bench{opts: o, rep: newReport(), tmp: tmp}
	if o.trace {
		b.hooks = newHooks()
	}
	fmt.Fprintf(stdout, "# env workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s commit=%s source=%s tmpfs=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), vcsRevision(), sourceDigest(wd), fsType(tmp))
	if err := fn(b); err != nil {
		return err
	}
	b.rep.set("ok_ratio", 1-ratio(float64(b.rep.failed), float64(b.rep.attempted)), "ratio", b.rep.attempted)
	b.rep.set("failed_ratio", ratio(float64(b.rep.failed), float64(b.rep.attempted)), "ratio", b.rep.attempted)
	want := endToEnd
	if o.trace {
		want = perLayer
		fill(b.rep)
		if err := b.hooks.writeSpans(filepath.Join(wd, ".bench_build", "spans-"+o.workload+".jsonl")); err != nil {
			return err
		}
	}
	return b.rep.write(stdout, want)
}

// start sets up the daemon the workload measures, wrapped with the
// traced run's hooks. It is the process's first daemon, so the measured
// window sees the heap a fresh etapd has. The workload's own
// preparation is done by now: its memory goes back to the system and
// the peak resident set restarts from here, so peak_rss_mb covers the
// daemon's start and the measured window, not the preparation.
func (b *bench) start(cfg daemonConfig) (*daemon, error) {
	cfg.hooks = b.hooks
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		b.rep.note("peak_rss_mb covers the whole process: %v", err)
	}
	d, err := startDaemon(cfg)
	if err != nil {
		return nil, err
	}
	b.setups = append(b.setups, d.phases)
	return d, nil
}

// finish ends the measured part of a run: it shuts the measured daemon
// down, then sets the same configuration up n-1 more times — each in a
// fresh directory, or in cfg.dir again when restart is set — and
// reports setup_s as the median of all n set-ups, so one slow start
// cannot move it.
func (b *bench) finish(d *daemon, cfg daemonConfig, n int, restart bool) error {
	if err := d.close(); err != nil {
		return err
	}
	for i := 1; i < n; i++ {
		c := cfg
		if !restart {
			c.dir = fmt.Sprintf("%s-%d", cfg.dir, i)
		}
		dd, err := startDaemon(c)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, dd.phases)
		if err := dd.close(); err != nil {
			return err
		}
	}
	var setup, train, build, extract []float64
	for _, p := range b.setups {
		setup = append(setup, p.setupS)
		train = append(train, p.trainS)
		build = append(build, p.buildS)
		extract = append(extract, p.extractS)
	}
	b.rep.set("setup_s", median(setup), "s", len(setup))
	b.rep.set("train.s", median(train), "s", len(train))
	if restart {
		b.rep.set("index.reopen_s", median(build), "s", len(build))
	} else {
		b.rep.set("index.build_s", median(build), "s", len(build))
	}
	if cfg.extract {
		b.rep.set("core.batch_extract_s", median(extract), "s", len(extract))
	}
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set (VmHWM) from the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest identifies the measured source tree when no VCS stamp
// exists: a SHA-256 over every .go file and go.mod under root.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f) // f is under root by construction
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir, where the WAL fsyncs.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
