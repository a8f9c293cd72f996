package service

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/version"
	"repro/pkg/compiler"
)

// WithObservability attaches a metrics registry and a trace buffer to
// the API. NewAPI creates private defaults when the option is absent, so
// the middleware and /v1/traces always work; hattd passes shared
// instances so the daemon can also mount GET /metrics off the same
// registry.
func WithObservability(reg *obs.Registry, tracer *obs.Tracer) APIOption {
	return func(a *API) {
		if reg != nil {
			a.reg = reg
		}
		if tracer != nil {
			a.tracer = tracer
		}
	}
}

// Registry exposes the API's metrics registry (always non-nil after
// NewAPI) so the daemon can register process-level collectors on it.
func (a *API) Registry() *obs.Registry { return a.reg }

// MetricsHandler serves the registry in Prometheus text exposition
// format; hattd mounts it at GET /metrics beside the /v1 surface.
func (a *API) MetricsHandler() http.Handler { return a.reg.Handler() }

// registerMetrics declares the API's metric families. Everything here
// reads the same underlying counters /v1/stats reports — the atomics on
// the API, the manager's queue and job table, store.Stats, fault.Stats —
// so the two surfaces cannot drift (the stats-vs-metrics equality test
// holds them together).
func (a *API) registerMetrics() {
	reg := a.reg
	a.reqHist = reg.Histogram("hatt_http_request_duration_seconds",
		"HTTP request latency by route and status.", obs.DefLatencyBuckets, "route", "status")
	stage := reg.Histogram("hatt_stage_duration_seconds",
		"Compilation pipeline stage duration by stage and method.", obs.DefLatencyBuckets, "stage", "method")
	a.tracer.SetStageHistogram(stage)

	reg.GaugeFunc("hatt_http_inflight_sync", "Synchronous compiles currently in flight.", nil,
		func() []obs.Sample { return []obs.Sample{{Value: float64(a.inflight.Load())}} })
	reg.CounterFunc("hatt_http_shed_total", "Synchronous compiles shed by the in-flight cap.", nil,
		func() []obs.Sample { return []obs.Sample{{Value: float64(a.shedSync.Load())}} })
	reg.GaugeFunc("hatt_uptime_seconds", "Seconds since the API started.", nil,
		func() []obs.Sample { return []obs.Sample{{Value: time.Since(a.started).Seconds()}} })
	reg.GaugeFunc("hatt_build_info", "Build metadata; value is always 1.", []string{"version"},
		func() []obs.Sample { return []obs.Sample{{Labels: []string{version.Version}, Value: 1}} })

	reg.GaugeFunc("hatt_traces_buffered", "Traces currently held in the span buffer.", nil,
		func() []obs.Sample { return []obs.Sample{{Value: float64(a.tracer.Len())}} })
	reg.CounterFunc("hatt_traces_evicted_total", "Traces evicted from the span buffer.", nil,
		func() []obs.Sample { return []obs.Sample{{Value: float64(a.tracer.Evicted())}} })

	if a.mgr != nil {
		reg.GaugeFunc("hatt_jobs_queue_depth", "Pending jobs in the manager queue.", nil,
			func() []obs.Sample {
				n, _ := a.mgr.QueueDepth()
				return []obs.Sample{{Value: float64(n)}}
			})
		reg.GaugeFunc("hatt_jobs_queue_capacity", "Capacity of the manager queue.", nil,
			func() []obs.Sample {
				_, c := a.mgr.QueueDepth()
				return []obs.Sample{{Value: float64(c)}}
			})
		reg.GaugeFunc("hatt_jobs", "Retained jobs by lifecycle state.", []string{"state"},
			func() []obs.Sample {
				counts := a.mgr.Counts()
				out := make([]obs.Sample, 0, len(counts))
				for state, n := range counts {
					out = append(out, obs.Sample{Labels: []string{string(state)}, Value: float64(n)})
				}
				return out
			})
	}
	if a.store != nil {
		reg.CounterFunc("hatt_store_lookups_total", "Store lookups by result.", []string{"result"},
			func() []obs.Sample {
				st := a.store.Stats()
				return []obs.Sample{
					{Labels: []string{"hit"}, Value: float64(st.Hits)},
					{Labels: []string{"miss"}, Value: float64(st.Misses)},
				}
			})
		reg.CounterFunc("hatt_store_puts_total", "Entries stored.", nil,
			func() []obs.Sample { return []obs.Sample{{Value: float64(a.store.Stats().Puts)}} })
		reg.CounterFunc("hatt_store_evictions_total", "Memory-tier LRU evictions.", nil,
			func() []obs.Sample { return []obs.Sample{{Value: float64(a.store.Stats().Evictions)}} })
		reg.GaugeFunc("hatt_store_entries", "Current memory-tier entry count.", nil,
			func() []obs.Sample { return []obs.Sample{{Value: float64(a.store.Stats().Entries)}} })
		reg.CounterFunc("hatt_store_disk_total", "Disk-tier events by kind.", []string{"kind"},
			func() []obs.Sample {
				st := a.store.Stats()
				return []obs.Sample{
					{Labels: []string{"hit"}, Value: float64(st.DiskHits)},
					{Labels: []string{"write"}, Value: float64(st.DiskWrites)},
					{Labels: []string{"error"}, Value: float64(st.DiskErrors)},
					{Labels: []string{"quarantine"}, Value: float64(st.DiskQuarantines)},
				}
			})
	}
	// Portfolio race counters read the compiler's package-level counters
	// directly, so they report whether or not a ledger is attached.
	reg.CounterFunc("hatt_portfolio_races_total", "Portfolio races started.", nil,
		func() []obs.Sample { return []obs.Sample{{Value: float64(compiler.PortfolioRaceCount())}} })
	reg.CounterFunc("hatt_portfolio_outcomes_total", "Portfolio racer outcomes by method and outcome.",
		[]string{"method", "outcome"},
		func() []obs.Sample {
			outcomes := compiler.PortfolioOutcomes()
			out := make([]obs.Sample, 0, len(outcomes))
			for _, o := range outcomes {
				out = append(out, obs.Sample{Labels: []string{o.Method, o.Outcome}, Value: float64(o.Count)})
			}
			return out
		})

	reg.CounterFunc("hatt_fault_injections_total", "Fault injections fired by site.", []string{"site"},
		func() []obs.Sample {
			fired := fault.Stats()
			out := make([]obs.Sample, 0, len(fired))
			for site, n := range fired {
				out = append(out, obs.Sample{Labels: []string{site}, Value: float64(n)})
			}
			return out
		})
}

// statusWriter captures the response status for the access log and the
// request-latency histogram.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// quietRoutes are polled by probes and scrapers; their access-log lines
// go out at debug so steady-state logs stay readable.
var quietRoutes = map[string]bool{
	"GET /v1/healthz": true,
	"GET /v1/readyz":  true,
	"GET /v1/stats":   true,
}

// observe is the edge middleware: it adopts an incoming W3C traceparent
// (or mints a fresh trace), opens the http.request root span, echoes the
// trace ID in the Trace-Id response header, and feeds the route/status
// latency histogram and the structured access log. It wraps the route
// mux, so every /v1 handler — and everything the compile paths call
// below it — sees the trace context in the request context.
func (a *API) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := obs.WithTracer(r.Context(), a.tracer)
		if sc, ok := obs.TraceparentFrom(r.Header); ok {
			ctx = obs.WithSpanContext(ctx, sc)
		}
		ctx, span := obs.StartSpan(ctx, "http.request")
		if span != nil {
			w.Header().Set("Trace-Id", span.Context().TraceID.String())
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		r2 := r.WithContext(ctx)
		start := time.Now()
		next.ServeHTTP(sw, r2)
		elapsed := time.Since(start)

		// The mux assigns the matched pattern on the request it routed, so
		// after ServeHTTP the label is the route shape ("GET /v1/jobs/{id}"),
		// never a high-cardinality concrete path.
		route := r2.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := strconv.Itoa(sw.code)
		span.SetAttr("route", route)
		span.SetAttr("status", status)
		span.End()
		a.reqHist.Observe(elapsed.Seconds(), route, status)

		logger := obs.L(ctx)
		if quietRoutes[route] {
			logger.Debug("http request", "route", route, "status", sw.code,
				"duration_ms", float64(elapsed.Microseconds())/1000)
			return
		}
		logger.Info("http request", "route", route, "status", sw.code,
			"duration_ms", float64(elapsed.Microseconds())/1000)
	})
}

// handleTraces serves one buffered trace: the spans recorded under the
// trace ID a compile responded with (Trace-Id header, trace_id field).
// 400 for a malformed ID, 404 once the trace has aged out of the buffer.
func (a *API) handleTraces(w http.ResponseWriter, r *http.Request) {
	id, err := obs.ParseTraceID(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	snap, ok := a.tracer.Snapshot(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "service: no buffered trace with this ID")
		return
	}
	writeJSON(w, http.StatusOK, snap)
}
