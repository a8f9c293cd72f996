// Command hattd is the HATT compilation daemon: compilation-as-a-service
// over the pkg/compiler facade. It serves a JSON HTTP API with a
// content-addressed result store (in-memory LRU plus optional disk
// tier), an async job manager with deduplication and backpressure, and
// live stats.
//
//	hattd -addr 127.0.0.1:7707 -store-dir /var/lib/hattd
//
// Endpoints (see docs/api.md for the full reference):
//
//	POST   /v1/compile          synchronous compile (cache-aware)
//	POST   /v1/jobs             submit an async job (429 when the queue is full)
//	GET    /v1/jobs/{id}        poll job status / result
//	DELETE /v1/jobs/{id}        cancel a job (?result=partial keeps the best-so-far)
//	GET    /v1/methods          registered mapping methods
//	GET    /v1/devices          device catalog
//	GET    /v1/healthz          liveness + version
//	GET    /v1/readyz           readiness (503 + reasons while degraded)
//	GET    /v1/stats            cache/portfolio counters (with the win/loss ledger), queue depth
//	GET    /v1/traces/{id}      recent request trace (spans + timings)
//	GET    /metrics             Prometheus text exposition of the same counters
//
// Every response carries a Trace-Id header; requests may supply a W3C
// traceparent header to join an existing trace. Structured logs (JSON by
// default) go to stderr with -log-level / -log-format; -debug-addr opens
// a second listener serving /debug/pprof/* so profiling never shares the
// public socket.
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains in-flight
// jobs (bounded by -drain-timeout), and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hattd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7707", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 0, "concurrent compile jobs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", service.DefaultQueueDepth, "pending-job queue depth; new work sheds with 429 at 7/8 of it")
	storeCap := flag.Int("store-cap", store.DefaultCapacity, "in-memory result-store entries (LRU-evicted)")
	storeDir := flag.String("store-dir", "", "enable the on-disk result-store tier rooted at this directory")
	maxModes := flag.Int("max-modes", service.DefaultMaxModes, "largest model a request may name")
	syncTimeout := flag.Duration("timeout", service.DefaultTimeout, "synchronous /v1/compile compile budget")
	jobTimeout := flag.Duration("job-timeout", service.DefaultMaxJobTime, "ceiling on any async job's compile time")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent synchronous compiles before shedding 429 (0 = 4×GOMAXPROCS)")
	faultPlan := flag.String("fault-plan", "", "arm a failpoint injection plan (chaos testing; also "+fault.EnvVar+" env)")
	logLevel := flag.String("log-level", "info", "structured log level: debug | info | warn | error")
	logFormat := flag.String("log-format", "json", "structured log format: json | text")
	traceBuffer := flag.Int("trace-buffer", obs.DefaultTraceCapacity, "recent traces kept for GET /v1/traces/{id}")
	debugAddr := flag.String("debug-addr", "", "separate listener for /debug/pprof/* (empty = profiling endpoints off)")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String("hattd"))
		return nil
	}

	// Structured logs go to stderr so stdout keeps the few load-bearing
	// plain lines (listen address, drain notices) scripts and the CI
	// smoke jobs grep for.
	if _, err := obs.InitLogger(os.Stderr, *logLevel, *logFormat); err != nil {
		return err
	}

	// Fault injection arms before anything that can hit a failpoint. The
	// flag wins over the environment so a supervisor-exported plan can be
	// overridden per invocation.
	if *faultPlan != "" {
		if err := fault.Arm(*faultPlan); err != nil {
			return err
		}
	} else if _, err := fault.ArmFromEnv(); err != nil {
		return err
	}
	if plan := fault.Active(); plan != "" {
		fmt.Printf("hattd: fault plan armed: %s\n", plan)
	}

	st, err := store.Open(*storeCap, *storeDir)
	if err != nil {
		return err
	}
	defer st.Close()

	// The portfolio win/loss ledger lives beside the result store: disk
	// tier configured → it survives restarts, memory-only otherwise.
	ledgerPath := ""
	if *storeDir != "" {
		ledgerPath = filepath.Join(*storeDir, "portfolio_ledger.json")
	}
	ledger, err := store.OpenLedger(ledgerPath, store.DefaultLedgerEpsilon)
	if err != nil {
		return err
	}

	mgr := service.New(service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		Store:      st,
		Ledger:     ledger,
		MaxJobTime: *jobTimeout,
	})
	api := service.NewAPI(mgr, st,
		service.WithMaxModes(*maxModes),
		service.WithSyncTimeout(*syncTimeout),
		service.WithMaxInFlight(*maxInFlight),
		service.WithLedger(ledger),
		service.WithObservability(obs.NewRegistry(), obs.NewTracer(*traceBuffer)),
	)

	// /v1/stats and the registry collectors behind /metrics read the
	// same counters, so the two views cannot drift.
	mux := http.NewServeMux()
	mux.Handle("/v1/", api.Handler())
	mux.Handle("GET /metrics", api.MetricsHandler())

	// Live profiling gets its own listener: /debug/pprof/* never shares
	// the serving socket, so an exposed -addr cannot leak profiles.
	if *debugAddr != "" {
		dln, derr := net.Listen("tcp", *debugAddr)
		if derr != nil {
			return derr
		}
		fmt.Printf("hattd: debug listener on %s (pprof)\n", dln.Addr())
		dsrv := &http.Server{Handler: prof.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = dsrv.Serve(dln) }()
		defer dsrv.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Request contexts descend from serveCtx so shutdown can force-cancel
	// in-flight synchronous compiles once the drain budget runs out.
	serveCtx, stopServe := context.WithCancel(context.Background())
	defer stopServe()
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return serveCtx },
	}

	// The printed address is load-bearing: with -addr :0 it is how
	// callers (the CI smoke job included) learn the real port.
	fmt.Printf("hattd %s listening on %s (store: mem cap %d, disk %q)\n",
		version.Version, ln.Addr(), *storeCap, *storeDir)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	fmt.Println("hattd: shutting down, draining in-flight jobs")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// First pass waits the drain budget for in-flight requests to finish
	// on their own; if any are still running, cancel their contexts
	// (aborting the compiles) and collect the connections briefly.
	httpErr := srv.Shutdown(shutdownCtx)
	if httpErr != nil {
		stopServe()
		forceCtx, forceCancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpErr = srv.Shutdown(forceCtx)
		forceCancel()
	}
	// The job manager always gets its drain (and force-cancel) pass,
	// even when the HTTP side misbehaved.
	if err := mgr.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("job drain: %w", err)
	}
	if httpErr != nil {
		return fmt.Errorf("http shutdown: %w", httpErr)
	}
	fmt.Println("hattd: drained cleanly")
	return nil
}
