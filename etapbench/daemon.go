package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"etap/internal/alert"
	"etap/internal/core"
	"etap/internal/corpus"
	"etap/internal/kb"
	"etap/internal/obs"
	"etap/internal/rank"
	"etap/internal/serve"
	"etap/internal/store"
	"etap/internal/tenant"
	"etap/internal/web"
)

// etapdSeed is etapd's default -seed: the world, the training data and
// the knowledge base all derive from it. Workload seeds drive only the
// inputs the benchmark sends.
const etapdSeed = 1

// layoutSeed fixes the deployment the traffic meets — tenant profiles
// and alert subscriptions — so every workload seed loads the same
// configuration and only the traffic (documents, reads, queries)
// varies with --seed.
const layoutSeed = 7

// daemonConfig is what a workload sets on top of etapd's default flags
// plus -wal-dir and -index-dir.
type daemonConfig struct {
	// world sizes the synthetic web; etapd itself always builds the
	// default world (corpus.Config{Seed: 1}).
	world corpus.Config
	// dir holds the wal/ and index/ directories.
	dir string
	// extract runs etapd's -extract batch pass.
	extract bool
	// hooks, in a traced run, wraps the interfaces the program accepts.
	hooks *hooks
}

// daemon is an in-process etapd: the objects cmd/etapd's run() builds,
// wired the same way, serving on a loopback listener.
type daemon struct {
	docs    []corpus.Document
	web     *web.Web
	sys     *core.System
	store   *store.Store
	api     *serve.Server
	kb      *kb.KB
	tenants *tenant.Registry
	manager *alert.Manager
	srv     *http.Server
	url     string
	cancel  context.CancelFunc
	served  chan error

	phases
	closed bool
}

// phases are a daemon's set-up times in seconds: index build or reopen,
// training, batch extraction, and the whole start (world generation
// included) until /healthz answers.
type phases struct {
	buildS, trainS, extractS, setupS float64
}

// quietLog is the daemon's logger: etapd logs at info to stderr; the
// benchmark keeps warnings and errors only so its own output stays
// readable.
func quietLog() *slog.Logger {
	return slog.New(obs.NewTraceHandler(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
}

// startDaemon mirrors cmd/etapd run() with default flags, -wal-dir and
// -index-dir: world generation, segment-index build (or reopen),
// training, optional batch extraction, KB generation, tenant registry,
// tracer, WAL, alert manager, and the HTTP server. It returns once the
// daemon answers /healthz.
func startDaemon(cfg daemonConfig) (*daemon, error) {
	start := time.Now()
	log := quietLog()
	d := &daemon{}
	gen := corpus.NewGenerator(cfg.world)
	d.docs = gen.World()

	t := time.Now()
	ccfg := core.Config{Seed: etapdSeed, IndexDir: filepath.Join(cfg.dir, "index")}
	w, err := core.BuildWebEngine(d.docs, ccfg)
	if err != nil {
		return nil, fmt.Errorf("opening index: %w", err)
	}
	d.web = w
	d.buildS = time.Since(t).Seconds()
	d.sys = core.New(w, ccfg)

	t = time.Now()
	for _, drv := range core.DefaultDrivers() {
		var pure []string
		for _, p := range gen.PurePositives(corpus.Driver(drv.ID), 40) {
			pure = append(pure, p.Text)
		}
		if _, err := d.sys.AddDriver(drv, pure); err != nil {
			d.closeWeb()
			return nil, fmt.Errorf("training %s: %w", drv.ID, err)
		}
	}
	d.trainS = time.Since(t).Seconds()

	d.store = store.New()
	if cfg.extract {
		t = time.Now()
		pages := make([]*web.Page, 0, w.Len())
		for _, u := range w.URLs() {
			if p, ok := w.Page(u); ok {
				pages = append(pages, p)
			}
		}
		for _, drv := range core.DefaultDrivers() {
			events, err := d.sys.ExtractEventsParallel(drv.ID, pages, 0.5, 0)
			if err != nil {
				d.closeWeb()
				return nil, err
			}
			d.store.Add(events, time.Now())
		}
		d.extractS = time.Since(t).Seconds()
	}

	d.api = serve.New(d.sys, d.store)
	d.kb = kb.Generate(kb.Config{Seed: etapdSeed})
	d.api.AttachKB(d.kb)
	d.tenants = tenant.NewRegistry(tenant.Config{})
	d.api.AttachTenants(d.tenants)

	tracer := obs.NewTracer(obs.TracerConfig{Capacity: 256, SampleRate: 0.1})
	d.api.AttachTracer(tracer)
	wal, err := alert.OpenWAL(alert.WALConfig{Dir: filepath.Join(cfg.dir, "wal"), Log: log})
	if err != nil {
		d.closeWeb()
		return nil, fmt.Errorf("opening ingest wal: %w", err)
	}
	acfg := alert.Config{
		WAL:           wal,
		Subscriptions: alert.NewSubscriptions(),
		Tenants:       d.tenants,
		KB:            d.kb,
		Log:           log,
		Tracer:        tracer,
	}
	var pipeline alert.Pipeline = d.sys
	var sink alert.Sink = d.api
	var indexer alert.Indexer = d.web
	if h := cfg.hooks; h != nil {
		pipeline, sink, indexer = h.pipeline(d.sys), h.sink(d.api), h.indexer(d.web)
		acfg.Deliverer = h.deliverer(&alert.WebhookDeliverer{})
	}
	d.manager = alert.NewManager(pipeline, sink, indexer, acfg)
	var seen []rank.Event
	for _, l := range d.store.Find(store.Query{}) {
		seen = append(seen, l.Event)
	}
	d.manager.SeedEvents(seen)
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.manager.Start(ctx)
	d.api.AttachAlerts(d.manager)

	mux := http.NewServeMux()
	mux.Handle("/", d.api)
	handler := accessLog(log, mux)
	if h := cfg.hooks; h != nil {
		handler = h.http(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	if err := waitHealthy(d.url); err != nil {
		d.close()
		return nil, err
	}
	d.setupS = time.Since(start).Seconds()
	return d, nil
}

// accessLog is etapd's per-request debug log line, kept so the handler
// chain matches the daemon's.
func accessLog(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := serve.NewStatusWriter(w)
		next.ServeHTTP(sw, r)
		log.Debug("request", "method", r.Method, "path", r.URL.Path,
			"status", sw.Status(), "duration", time.Since(start))
	})
}

// probe is the client for readiness and /debug/vars reads, kept apart
// from both the load generator's pool and http.DefaultClient, which the
// daemon's webhook deliverer uses.
var probe = &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}

func waitHealthy(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, err := do(probe, http.MethodGet, base+"/healthz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after 30s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drain waits until every accepted document is processed and every
// dispatched alert is delivered or dead-lettered.
func (d *daemon) drain(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return d.manager.Flush(ctx)
}

// close shuts the daemon down in etapd's order: listener, alert
// manager (which closes the WAL), then the web (which commits the
// index). Closing twice is a no-op.
func (d *daemon) close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	var errs []error
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := d.srv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
			_ = d.srv.Close() // already failing; Shutdown's error is reported
		}
		cancel()
		if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if d.manager != nil {
		d.manager.Close()
	}
	if d.cancel != nil {
		d.cancel()
	}
	if err := d.closeWeb(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (d *daemon) closeWeb() error {
	if d.web == nil {
		return nil
	}
	err := d.web.Close()
	d.web = nil
	return err
}
