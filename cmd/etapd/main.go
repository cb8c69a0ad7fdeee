// Command etapd serves a trained ETAP system over HTTP: the lead-store
// browsing/review API plus on-demand snippet scoring. It trains the
// built-in drivers at startup (or loads previously saved models) and can
// pre-populate the lead store from a full extraction pass.
//
// Usage:
//
//	etapd [-addr :8080] [-seed N] [-load-models dir] [-leads leads.jsonl]
//	      [-extract] [-log-level info] [-pprof]
//	      [-index-shards N] [-query-cache N]
//	      [-index-dir dir] [-segment-flush-docs N] [-merge-factor N]
//	      [-shutdown-timeout 10s] [-checkpoint-interval 30s]
//	      [-alerts] [-subscriptions subs.jsonl]
//	      [-ingest-workers N] [-ingest-queue N] [-ingest-partitions N]
//	      [-wal-dir dir] [-wal-fsync-batch N]
//	      [-trace-sample 0.1] [-trace-store 256] [-lag-slo 0]
//	      [-kb kb.jsonl] [-tenants tenants.jsonl]
//
// Streaming (default on, -alerts=false disables): POST /ingest feeds
// documents through the extraction pipeline incrementally, deduped
// trigger events land in the lead store, and matching subscribers
// (CRUD under /subscriptions, persisted to -subscriptions) get webhook
// and GET /alerts/stream SSE alerts. A full ingest queue answers 429.
//
// Ingest durability: with -wal-dir, every accepted document is
// appended to a write-ahead log (length+CRC framed, group-commit
// fsynced; -wal-fsync-batch caps appends acknowledged per fsync)
// BEFORE the 202 is returned, documents are routed by URL hash to
// -ingest-partitions ordered consumer lanes (default: the worker
// count) that advance committed offsets only after processing, and
// startup replays the uncommitted tail — a crash, even SIGKILL, loses
// no accepted document (fingerprint dedup keeps the replay from
// re-alerting). The on-disk format is specified in STORAGE.md §9 and
// the recovery runbook lives in OPERATIONS.md. Without -wal-dir,
// ingest is memory-only (the pre-WAL behaviour).
//
// Tracing (with -alerts): every accepted document gets a trace ID
// (echoed by the 202) following it through extraction, matching, and
// each webhook attempt (outgoing W3C traceparent header). Completed
// traces are tail-sampled — errors and the slow tail always retained,
// healthy traces at -trace-sample — into a -trace-store-entry ring
// served at GET /debug/traces (and /debug/traces/{id}); -trace-store 0
// disables tracing. Log lines carry trace_id/span_id when in scope.
// -lag-slo sets a p99 budget on delivery lag (ingest accept → webhook
// 2xx); exceeding it degrades /healthz.
//
// Multi-tenant ICP serving: the daemon always carries a company
// knowledge base (industry, size, HQ, keywords, relationships) and a
// tenant registry. -kb names the KB file — loaded when it exists,
// otherwise generated from -seed and saved there; without the flag the
// KB lives in RAM only (same bytes either way: generation is seed-
// deterministic). Tenants CRUD under /tenants defines per-tenant
// ideal-customer profiles; GET /leads?tenant={id} filters and re-ranks
// against that tenant's ICP, and tenant-scoped alert subscriptions
// apply the same ICP at fan-out time. -tenants names the profile store
// (JSONL), checkpointed alongside leads and subscriptions.
//
// Index persistence: by default the search index is memory-only, rebuilt
// at startup and never written to disk. With -index-dir it is backed by
// immutable on-disk segments under that directory (format specified in
// STORAGE.md): a restart re-opens committed segments instead of
// re-indexing the corpus, -segment-flush-docs sets the per-writer
// memtable size sealed into each segment, and -merge-factor the tiered
// background-merge fan-in. Graceful shutdown flushes all in-memory
// batches before exit.
//
// Lifecycle: SIGTERM or SIGINT triggers a graceful shutdown — the
// listener stops accepting, in-flight requests drain for up to
// -shutdown-timeout, queued documents finish processing, and the lead
// store, subscription set, and tenant registry are checkpointed so
// reviews, streamed leads, subscriptions, and ICP profiles survive the
// restart. While running, the stores are also checkpointed every
// -checkpoint-interval (skipped when nothing changed).
//
// Observability:
//
//	GET /metrics           Prometheus text exposition (pipeline + HTTP metrics)
//	GET /debug/vars        JSON snapshot of the same registry
//	GET /healthz           readiness: drivers, store size, uptime, runtime stats
//	GET /debug/build       build identity (version, go, VCS revision)
//	GET /debug/traces      recent per-document traces (with -alerts)
//	GET /debug/traces/{id} one trace's full span tree (with -alerts)
//	GET /debug/pprof/      Go profiler endpoints (only with -pprof)
//
// Logs are structured (log/slog, text to stderr); -log-level selects
// debug|info|warn|error. Per-request access logs are emitted at debug.
//
// Try it:
//
//	etapd -extract &
//	curl 'localhost:8080/leads?min=0.9&top=5'
//	curl 'localhost:8080/metrics'
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"etap"
	"etap/internal/alert"
	"etap/internal/kb"
	"etap/internal/obs"
	"etap/internal/rank"
	"etap/internal/serve"
	"etap/internal/store"
	"etap/internal/tenant"
)

// options collects the parsed command-line flags.
type options struct {
	addr       string
	seed       int64
	loadDir    string
	leadsPath  string
	extract    bool
	pprofOn    bool
	shards     int
	cacheSize  int
	indexDir   string
	flushDocs  int
	mergeFac   int
	drain      time.Duration
	checkpoint time.Duration

	kbPath      string
	tenantsPath string

	alerts        bool
	subsPath      string
	ingestWorkers int
	ingestQueue   int
	ingestParts   int
	walDir        string
	walFsyncBatch int
	traceSample   float64
	traceStore    int
	lagSLO        time.Duration
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		seed       = flag.Int64("seed", 1, "world and training seed")
		loadDir    = flag.String("load-models", "", "load driver models instead of training")
		leadsPath  = flag.String("leads", "", "JSONL lead store to load (and keep updating via the API)")
		extract    = flag.Bool("extract", false, "run a full extraction pass at startup to populate the store")
		logLevel   = flag.String("log-level", "info", "log level: debug|info|warn|error")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		shards     = flag.Int("index-shards", 0, "search-index writer-lane count (0 = GOMAXPROCS)")
		cacheSize  = flag.Int("query-cache", 0, "query-result cache entries (0 = default, negative = disabled)")
		indexDir   = flag.String("index-dir", "", "persistent segment-index directory (empty = memory-only index; see STORAGE.md)")
		flushDocs  = flag.Int("segment-flush-docs", 0, "per-writer memtable docs before a segment flush (0 = default; with -index-dir)")
		mergeFac   = flag.Int("merge-factor", 0, "tiered segment-merge fan-in (0 = default; with -index-dir)")
		drain      = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGTERM/SIGINT")
		checkpoint = flag.Duration("checkpoint-interval", 30*time.Second, "how often to checkpoint the lead store to -leads (0 disables periodic saves)")

		kbPath      = flag.String("kb", "", "company knowledge-base JSONL: loaded when present, else generated from -seed and saved (empty = in-RAM KB)")
		tenantsPath = flag.String("tenants", "", "JSONL tenant-profile store to load (and keep checkpointing)")

		alerts        = flag.Bool("alerts", true, "enable the streaming subsystem (/ingest, /subscriptions, /alerts/stream)")
		subsPath      = flag.String("subscriptions", "", "JSONL subscription store to load (and keep checkpointing)")
		ingestWorkers = flag.Int("ingest-workers", 0, "ingest worker-pool size (0 = default 2)")
		ingestQueue   = flag.Int("ingest-queue", 0, "per-partition ingest queue capacity before 429s (0 = default 64)")
		ingestParts   = flag.Int("ingest-partitions", 0, "ingest partition count, one ordered consumer lane each (0 = worker count)")
		walDir        = flag.String("wal-dir", "", "ingest write-ahead-log directory; accepted documents are durable before the 202 (empty = no WAL)")
		walFsyncBatch = flag.Int("wal-fsync-batch", 0, "max WAL appends acknowledged per fsync; 1 = fsync every append (0 = default 64; with -wal-dir)")
		traceSample   = flag.Float64("trace-sample", 0.1, "fraction of healthy traces retained (errors and the slow tail always kept)")
		traceStore    = flag.Int("trace-store", 256, "retained-trace ring capacity (0 disables per-document tracing)")
		lagSLO        = flag.Duration("lag-slo", 0, "p99 delivery-lag budget, ingest accept to webhook 2xx (0 disables the /healthz check)")
	)
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etapd:", err)
		os.Exit(2)
	}
	log := slog.New(obs.NewTraceHandler(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))
	slog.SetDefault(log)

	opts := options{
		addr:       *addr,
		seed:       *seed,
		loadDir:    *loadDir,
		leadsPath:  *leadsPath,
		extract:    *extract,
		pprofOn:    *pprofOn,
		shards:     *shards,
		cacheSize:  *cacheSize,
		indexDir:   *indexDir,
		flushDocs:  *flushDocs,
		mergeFac:   *mergeFac,
		drain:      *drain,
		checkpoint: *checkpoint,

		kbPath:      *kbPath,
		tenantsPath: *tenantsPath,

		alerts:        *alerts,
		subsPath:      *subsPath,
		ingestWorkers: *ingestWorkers,
		ingestQueue:   *ingestQueue,
		ingestParts:   *ingestParts,
		walDir:        *walDir,
		walFsyncBatch: *walFsyncBatch,
		traceSample:   *traceSample,
		traceStore:    *traceStore,
		lagSLO:        *lagSLO,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// Once the first signal starts the graceful path, restore the
		// default disposition so a second signal kills immediately.
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, log, opts); err != nil {
		log.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, log *slog.Logger, opts options) error {
	start := time.Now()
	seed := opts.seed
	gen := etap.NewWorldGenerator(etap.WorldConfig{Seed: seed})
	cfg := etap.Config{
		Seed: seed, Shards: opts.shards, CacheSize: opts.cacheSize,
		IndexDir: opts.indexDir, SegmentFlushDocs: opts.flushDocs, MergeFactor: opts.mergeFac,
	}
	w, err := etap.BuildWebEngine(gen.World(), cfg)
	if err != nil {
		return fmt.Errorf("opening index: %w", err)
	}
	// Closing the web flushes the persistent index's memtables and
	// commits its manifest, so everything indexed this run re-opens
	// instead of re-indexing next run; a no-op for a memory-only index.
	defer func() {
		if cerr := w.Close(); cerr != nil {
			log.Error("index close", "err", cerr)
		}
	}()
	sys := etap.NewSystem(w, cfg)
	st0 := w.Index().IndexStats()
	log.Info("world built", "pages", w.Len(), "seed", seed,
		"index_shards", st0.Shards, "index_postings", st0.Postings,
		"index_segments", st0.Segments, "index_dir", opts.indexDir,
		"elapsed", time.Since(start))

	for _, d := range etap.DefaultDrivers() {
		t0 := time.Now()
		if opts.loadDir != "" {
			data, err := os.ReadFile(filepath.Join(opts.loadDir, d.ID+".json"))
			if err != nil {
				return fmt.Errorf("loading %s: %w", d.ID, err)
			}
			if err := sys.UnmarshalDriver(data, d.Filter); err != nil {
				return err
			}
			log.Info("driver loaded", "driver", d.ID, "elapsed", time.Since(t0))
			continue
		}
		stats, err := sys.AddDriver(d, purePositives(gen, d.ID))
		if err != nil {
			return fmt.Errorf("training %s: %w", d.ID, err)
		}
		log.Info("driver trained", "driver", d.ID,
			"noisy_positives", stats.NoisyPositives,
			"negatives", stats.Negatives,
			"vocabulary", stats.VocabularySize,
			"noise_rounds", len(stats.NoiseHistory),
			"elapsed", time.Since(t0))
	}

	var st *store.Store
	if opts.leadsPath != "" {
		st, err = store.LoadFile(opts.leadsPath)
		if err != nil {
			return err
		}
		log.Info("lead store loaded", "path", opts.leadsPath, "leads", st.Len())
	} else {
		st = store.New()
	}

	if opts.extract {
		if err := extractAll(log, sys, w, st); err != nil {
			return err
		}
		if opts.leadsPath != "" {
			if err := st.SaveFile(opts.leadsPath); err != nil {
				return err
			}
		}
	}

	api := serve.New(sys, st)

	// Knowledge base: load the persisted file when it exists, otherwise
	// generate from the world seed (byte-deterministic, so a later load
	// sees the same records) and persist it when a path was given.
	kbase, err := loadOrGenerateKB(log, opts.kbPath, seed)
	if err != nil {
		return err
	}
	api.AttachKB(kbase)

	// Tenant registry: ICP profiles behind /tenants, checkpointed like
	// the lead store. Attached even without -tenants so the multi-tenant
	// API works (profiles are just not durable then).
	tenants := tenant.NewRegistry(tenant.Config{})
	if opts.tenantsPath != "" {
		tenants, err = tenant.LoadFile(opts.tenantsPath, tenant.Config{})
		if err != nil {
			return fmt.Errorf("loading tenants: %w", err)
		}
		log.Info("tenant registry loaded", "path", opts.tenantsPath, "tenants", tenants.Len())
	}
	api.AttachTenants(tenants)
	var tenantsCP *checkpointer
	if opts.tenantsPath != "" {
		tenantsCP = newCheckpointer("tenants", opts.tenantsPath, tenants.Revision, tenants.SaveFile, log)
		if opts.checkpoint > 0 {
			go tenantsCP.run(ctx, opts.checkpoint)
		}
	}

	// Streaming subsystem: incremental ingestion, subscriptions, and
	// alert delivery over the same system, web, and lead store.
	var manager *alert.Manager
	var subsCP *checkpointer
	if opts.alerts {
		subs := alert.NewSubscriptions()
		if opts.subsPath != "" {
			subs, err = alert.LoadSubscriptions(opts.subsPath)
			if err != nil {
				return fmt.Errorf("loading subscriptions: %w", err)
			}
			log.Info("subscriptions loaded", "path", opts.subsPath, "subscriptions", subs.Len())
		}
		var tracer *obs.Tracer
		if opts.traceStore > 0 {
			tracer = obs.NewTracer(obs.TracerConfig{
				Capacity:   opts.traceStore,
				SampleRate: opts.traceSample,
			})
			api.AttachTracer(tracer)
		}
		var wal *alert.WAL
		if opts.walDir != "" {
			wal, err = alert.OpenWAL(alert.WALConfig{
				Dir:        opts.walDir,
				FsyncBatch: opts.walFsyncBatch,
				Log:        log,
			})
			if err != nil {
				return fmt.Errorf("opening ingest wal: %w", err)
			}
			log.Info("ingest wal open", "dir", opts.walDir,
				"fsync_batch", opts.walFsyncBatch, "stats", wal.Stats())
		}
		manager = alert.NewManager(sys, api, w, alert.Config{
			Workers:       opts.ingestWorkers,
			Partitions:    opts.ingestParts,
			QueueSize:     opts.ingestQueue,
			WAL:           wal,
			Subscriptions: subs,
			Tenants:       tenants,
			KB:            kbase,
			Log:           log,
			Tracer:        tracer,
			LagSLO:        opts.lagSLO,
		})
		// Everything already in the lead store has been alerted (or
		// predates alerting): seed the dedup set so a restart — or a
		// re-crawl replayed through /ingest — never re-alerts it.
		var seen []rank.Event
		for _, l := range st.Find(store.Query{}) {
			seen = append(seen, l.Event)
		}
		manager.SeedEvents(seen)
		manager.Start(ctx)
		api.AttachAlerts(manager)
		log.Info("alert subsystem enabled",
			"subscriptions", subs.Len(), "seeded_events", len(seen))
		if opts.subsPath != "" {
			subsCP = subsCheckpointer(subs, opts.subsPath, log)
			if opts.checkpoint > 0 {
				go subsCP.run(ctx, opts.checkpoint)
			}
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/", api)
	if opts.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Info("pprof enabled", "path", "/debug/pprof/")
	}

	var cp *checkpointer
	if opts.leadsPath != "" {
		cp = leadsCheckpointer(api, opts.leadsPath, log)
		if opts.checkpoint > 0 {
			go cp.run(ctx, opts.checkpoint)
		}
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           accessLog(log, mux),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Info("serving", "addr", ln.Addr().String(), "startup", time.Since(start))
	return serveUntilShutdown(ctx, log, srv, ln, opts.drain, manager, cp, subsCP, tenantsCP)
}

// loadOrGenerateKB resolves the company knowledge base: the persisted
// file when path names one, otherwise a fresh seed-deterministic
// generation — saved to path (when given) so the next start loads the
// identical bytes instead of regenerating.
func loadOrGenerateKB(log *slog.Logger, path string, seed int64) (*kb.KB, error) {
	if path != "" {
		if _, err := os.Stat(path); err == nil {
			k, err := kb.LoadFile(path)
			if err != nil {
				return nil, fmt.Errorf("loading knowledge base: %w", err)
			}
			log.Info("knowledge base loaded", "path", path, "companies", k.Len())
			return k, nil
		}
	}
	k := kb.Generate(kb.Config{Seed: seed})
	if path != "" {
		if err := k.SaveFile(path); err != nil {
			return nil, fmt.Errorf("saving knowledge base: %w", err)
		}
	}
	log.Info("knowledge base generated", "seed", seed, "companies", k.Len(), "path", path)
	return k, nil
}

// purePositives samples the per-driver labeled snippets used alongside
// the automatically generated training data.
func purePositives(gen *etap.WorldGenerator, driverID string) []string {
	var pure []string
	for _, p := range gen.PurePositives(etap.Driver(driverID), 40) {
		pure = append(pure, p.Text)
	}
	return pure
}

// extractAll runs the startup extraction pass. Each driver's call is
// one observation of the extract stage's duration histogram, and its
// events are counted as the stage's items, so the cost of populating
// the store lands in the log and on /metrics. The first call annotates
// every page once and scores all the drivers, so its observation
// carries the whole pass; the later calls take their events from the
// System's stash and observe near zero.
func extractAll(log *slog.Logger, sys *etap.System, w *etap.Web, st *store.Store) error {
	var pages []*etap.Page
	for _, u := range w.URLs() {
		if p, ok := w.Page(u); ok {
			pages = append(pages, p)
		}
	}
	dur := obs.StageDuration(nil, "extract")
	items := obs.StageItems(nil, "extract")
	start := time.Now()
	for _, d := range etap.DefaultDrivers() {
		t := time.Now()
		events, err := sys.ExtractEventsParallel(d.ID, pages, 0.5, 0)
		if err != nil {
			return err
		}
		dur.ObserveSince(t)
		items.Add(uint64(len(events)))
		added := st.Add(events, time.Now())
		log.Info("extracted", "driver", d.ID, "events", len(events), "new", added, "elapsed", time.Since(t))
	}
	log.Info("extraction pass done", "elapsed", time.Since(start))
	return nil
}

// accessLog wraps the handler with a structured per-request log line at
// debug level (method, path, status, duration).
func accessLog(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := serve.NewStatusWriter(w)
		next.ServeHTTP(sw, r)
		log.Debug("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.Status(),
			"duration", time.Since(start))
	})
}
