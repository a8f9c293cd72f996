package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/version"
	"repro/pkg/compiler"
)

// API is the JSON-over-HTTP surface hattd mounts. Every error response
// is a structured JSON object ({"error": ..., "status": ...}); malformed
// or absurd input is always a 4xx, never a panic.
type API struct {
	mgr      *Manager
	store    *store.Store  // may be nil; used for /v1/stats and /v1/readyz
	ledger   *store.Ledger // may be nil; used for the /v1/stats portfolio block
	maxModes int
	timeout  time.Duration
	started  time.Time

	// maxInFlight caps concurrent synchronous compiles; excess requests
	// are shed with 429 + Retry-After instead of queueing behind each
	// other until every worker thread is pinned.
	maxInFlight int
	inflight    atomic.Int64
	shedSync    atomic.Int64

	// compile is the sync-compile entry point, indirect so tests (and
	// the request-decoder fuzzer) can stub the expensive part out.
	compile func(ctx context.Context, req *compileRequest) (*compiler.Result, int, error)

	// Observability: the metric registry behind GET /metrics, the span
	// buffer behind GET /v1/traces/{id}, and the request-latency
	// histogram the observe middleware feeds. NewAPI always populates
	// them (see WithObservability).
	reg     *obs.Registry
	tracer  *obs.Tracer
	reqHist *obs.Histogram
}

// Request-size guardrails, tuned to keep one malicious request from
// monopolizing the daemon.
const (
	DefaultMaxModes   = 64
	DefaultTimeout    = 5 * time.Minute
	maxBodyBytes      = 1 << 20 // 1 MiB request bodies
	maxAnnealIters    = 100_000_000
	maxAnnealRestarts = 4096
	maxParallelism    = 4096
	// maxMonomials caps the Majorana monomials an inline Hamiltonian
	// expands into, Σ 2^k over its terms of k operators: the count
	// quadruples with every two operators added to one term.
	maxMonomials = 1 << 20
)

// Retry-After guidance (seconds) attached to shed and draining
// responses so well-behaved clients back off the right amount: shed
// work clears in about a queue-drain interval, a draining node needs
// its replacement to come up.
const (
	retryAfterBackpressure = "1"
	retryAfterDraining     = "5"
)

// APIOption configures NewAPI.
type APIOption func(*API)

// WithMaxModes caps the model size a request may name (≤ 0 keeps
// DefaultMaxModes).
func WithMaxModes(n int) APIOption {
	return func(a *API) {
		if n > 0 {
			a.maxModes = n
		}
	}
}

// WithSyncTimeout bounds each synchronous /v1/compile call (≤ 0 keeps
// DefaultTimeout).
func WithSyncTimeout(d time.Duration) APIOption {
	return func(a *API) {
		if d > 0 {
			a.timeout = d
		}
	}
}

// WithLedger attaches the portfolio win/loss ledger so /v1/stats
// reports it in its portfolio block. Compiles consult the ledger the
// manager's Config.Ledger names.
func WithLedger(l *store.Ledger) APIOption {
	return func(a *API) { a.ledger = l }
}

// WithMaxInFlight caps how many synchronous /v1/compile requests run
// concurrently; requests beyond the cap are shed with 429 and a
// Retry-After header (≤ 0 keeps the default, 4 × GOMAXPROCS).
func WithMaxInFlight(n int) APIOption {
	return func(a *API) {
		if n > 0 {
			a.maxInFlight = n
		}
	}
}

// NewAPI wires the HTTP surface over a job manager and an optional
// store (the same one the manager's jobs consult, surfaced in
// /v1/stats).
func NewAPI(mgr *Manager, st *store.Store, opts ...APIOption) *API {
	a := &API{
		mgr:         mgr,
		store:       st,
		maxModes:    DefaultMaxModes,
		timeout:     DefaultTimeout,
		maxInFlight: 4 * runtime.GOMAXPROCS(0),
		started:     time.Now(),
	}
	a.compile = a.compileSync
	for _, o := range opts {
		o(a)
	}
	if a.reg == nil {
		a.reg = obs.NewRegistry()
	}
	if a.tracer == nil {
		a.tracer = obs.NewTracer(obs.DefaultTraceCapacity) //hatt:lint-ignore apierr 512 is a trace-buffer capacity, not a status code
	}
	// Async jobs trace through the manager; give it the same buffer so a
	// job's spans land in the trace of the request that submitted it.
	if mgr != nil {
		mgr.tracer = a.tracer
	}
	a.registerMetrics()
	return a
}

// routeTable returns every registered route pattern paired with its
// handler. Handler and Routes both consume this one table, so the served
// mux and the documented route list cannot drift apart — which is what
// lets the doc-sync test hold docs/api.md to the real surface.
func (a *API) routeTable() []struct {
	pattern string
	handler http.HandlerFunc
} {
	return []struct {
		pattern string
		handler http.HandlerFunc
	}{
		{"POST /v1/compile", a.handleCompile},
		{"POST /v1/jobs", a.handleSubmit},
		{"GET /v1/jobs/{id}", a.handleJobStatus},
		{"DELETE /v1/jobs/{id}", a.handleJobCancel},
		{"GET /v1/methods", a.handleMethods},
		{"GET /v1/devices", a.handleDevices},
		{"GET /v1/traces/{id}", a.handleTraces},
		{"GET /v1/healthz", a.handleHealthz},
		{"GET /v1/readyz", a.handleReadyz},
		{"GET /v1/stats", a.handleStats},
	}
}

// Routes lists every registered route pattern ("METHOD /v1/path"). The
// doc-sync test asserts docs/api.md documents exactly this set.
func Routes() []string {
	var a API
	table := a.routeTable()
	routes := make([]string, len(table))
	for i, r := range table {
		routes[i] = r.pattern
	}
	return routes
}

// Handler returns the route table as an http.Handler. Method mismatches
// get 405 from the mux's pattern matching; everything else lands in a
// handler that only writes JSON.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range a.routeTable() {
		mux.HandleFunc(r.pattern, r.handler)
	}
	return a.observe(recoverJSON(mux))
}

// recoverJSON is the outermost safety net: a panic escaping any handler
// becomes a structured 500 instead of a torn connection. Handlers are
// written not to panic — the fuzzer holds them to "4xx on bad input" —
// so this exists for defense in depth, not control flow.
func recoverJSON(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeErr(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// apiError carries a status code with its message.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg, "status": code})
}

func writeAPIErr(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		writeErr(w, ae.code, ae.msg)
		return
	}
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", retryAfterBackpressure)
		writeErr(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", retryAfterDraining)
		//hatt:lint-ignore apierr 503 is the contract for a draining daemon, not a handler bug
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrNotFound):
		writeErr(w, http.StatusNotFound, err.Error())
	default:
		writeErr(w, http.StatusBadRequest, err.Error())
	}
}

// compileRequest is the wire shape of POST /v1/compile and POST
// /v1/jobs. Unknown fields are rejected so typos fail loudly instead of
// silently compiling with defaults.
type compileRequest struct {
	Model       string          `json:"model,omitempty"`
	Hamiltonian json.RawMessage `json:"hamiltonian,omitempty"` // fermion JSON, alternative to Model
	Method      string          `json:"method,omitempty"`
	Options     *requestOptions `json:"options,omitempty"`
	TimeoutMS   int64           `json:"timeout_ms,omitempty"`
	Strings     bool            `json:"include_strings,omitempty"`
	// Device targets a catalog coupling graph by spec (montreal,
	// sycamore, manhattan, linear:<n>, grid:<r>x<c>); CustomDevice is an
	// arch.DeviceSpec JSON edge list. Either makes the compile route the
	// synthesized circuit and report routed metrics.
	Device       string          `json:"device,omitempty"`
	CustomDevice json.RawMessage `json:"custom_device,omitempty"`
	// Trace asks the response to embed the request's span timeline (the
	// trace ID is always surfaced via the Trace-Id header regardless).
	Trace bool `json:"trace,omitempty"`

	// Resolved by decodeCompileRequest: the Hamiltonian in Majorana form,
	// and the options and device lowered onto compiler options.
	mh   *fermion.MajoranaHamiltonian
	opts []compiler.Option
}

// request is the manager's form of a decoded compile request, which
// both POST /v1/compile and POST /v1/jobs compile.
func (req *compileRequest) request() Request {
	return Request{
		Model:       req.Model,
		Hamiltonian: req.mh,
		Spec:        req.Method,
		Options:     req.opts,
		Timeout:     time.Duration(req.TimeoutMS) * time.Millisecond,
		Strings:     req.Strings,
	}
}

// requestOptions is the JSON mirror of the compiler's result-affecting
// options plus parallelism. The beam width and the fh visit budget are
// not options: they are part of the method spec ("beam:8", "fh:500000").
type requestOptions struct {
	AnnealIters    int     `json:"anneal_iters,omitempty"`
	AnnealTStart   float64 `json:"anneal_t_start,omitempty"`
	AnnealTEnd     float64 `json:"anneal_t_end,omitempty"`
	TieBreak       string  `json:"tie_break,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	AnnealRestarts int     `json:"anneal_restarts,omitempty"`
	Parallelism    int     `json:"parallelism,omitempty"`
}

// compilerOptions validates the wire options and lowers them onto the
// facade's functional options.
func (ro *requestOptions) compilerOptions() ([]compiler.Option, *apiError) {
	if ro == nil {
		return nil, nil
	}
	var opts []compiler.Option
	switch {
	case ro.AnnealIters < 0 || ro.AnnealIters > maxAnnealIters:
		return nil, badRequest("anneal_iters %d out of range [0, %d]", ro.AnnealIters, maxAnnealIters)
	case !finiteNonNeg(ro.AnnealTStart) || !finiteNonNeg(ro.AnnealTEnd):
		return nil, badRequest("anneal temperatures must be finite and ≥ 0")
	case ro.AnnealIters > 0 || ro.AnnealTStart > 0 || ro.AnnealTEnd > 0:
		opts = append(opts, compiler.WithAnnealSchedule(ro.AnnealIters, ro.AnnealTStart, ro.AnnealTEnd))
	}
	if ro.TieBreak != "" {
		tb, err := parseTieBreak(ro.TieBreak)
		if err != nil {
			return nil, err
		}
		opts = append(opts, compiler.WithTieBreak(tb))
	}
	if ro.Seed != 0 {
		opts = append(opts, compiler.WithSeed(ro.Seed))
	}
	switch {
	case ro.AnnealRestarts < 0 || ro.AnnealRestarts > maxAnnealRestarts:
		return nil, badRequest("anneal_restarts %d out of range [0, %d]", ro.AnnealRestarts, maxAnnealRestarts)
	case ro.AnnealRestarts > 0:
		opts = append(opts, compiler.WithAnnealRestarts(ro.AnnealRestarts))
	}
	switch {
	case ro.Parallelism < 0 || ro.Parallelism > maxParallelism:
		return nil, badRequest("parallelism %d out of range [0, %d]", ro.Parallelism, maxParallelism)
	case ro.Parallelism > 0:
		opts = append(opts, compiler.WithParallelism(ro.Parallelism))
	}
	return opts, nil
}

func finiteNonNeg(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0) && f >= 0
}

func parseTieBreak(s string) (compiler.TieBreak, *apiError) {
	switch s {
	case "first":
		return compiler.TieFirst, nil
	case "depth":
		return compiler.TieDepth, nil
	case "support":
		return compiler.TieSupport, nil
	}
	return 0, badRequest("tie_break %q unknown (want first | depth | support)", s)
}

// decodeCompileRequest reads, parses, and validates one request body.
// Every failure is an *apiError in the 4xx family. On success the
// request carries a resolved Majorana Hamiltonian.
func (a *API) decodeCompileRequest(r *http.Request) (*compileRequest, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		if _, ok := err.(*http.MaxBytesError); ok {
			return nil, &apiError{code: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)}
		}
		return nil, badRequest("reading request body: %v", err)
	}
	var req compileRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("invalid JSON request: %v", err)
	}
	// Reject trailing garbage after the JSON object.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequest("trailing data after JSON request")
	}

	if req.Method == "" {
		req.Method = "hatt"
	}
	if _, err := compiler.Resolve(req.Method); err != nil {
		return nil, badRequest("%v", err)
	}
	if req.TimeoutMS < 0 {
		return nil, badRequest("timeout_ms must be ≥ 0")
	}
	var aerr *apiError
	if req.opts, aerr = req.Options.compilerOptions(); aerr != nil {
		return nil, aerr
	}

	// Device targeting: validated here so a bad spec or malformed custom
	// JSON is a structured 4xx before any compilation work.
	switch {
	case req.Device != "" && len(req.CustomDevice) > 0:
		return nil, badRequest("device and custom_device are mutually exclusive")
	case req.Device != "":
		if err := arch.CheckSpec(req.Device); err != nil {
			return nil, badRequest("%v", err)
		}
		req.opts = append(req.opts, compiler.WithDevice(req.Device))
	case len(req.CustomDevice) > 0:
		d, err := arch.ParseDeviceJSON(req.CustomDevice)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		req.opts = append(req.opts, compiler.WithDeviceSpec(d))
	}

	if len(req.Hamiltonian) == 0 && req.Model == "" {
		return nil, badRequest("request needs a model spec or a hamiltonian")
	}
	req.mh, aerr = a.majoranaForm(r.Context(), &req)
	if aerr != nil {
		return nil, aerr
	}
	if req.Model == "" {
		req.Model = "custom"
	}
	return &req, nil
}

// majoranaForm builds the request's Hamiltonian, inline or named, and
// expands it into Majorana form under one model.build span. Both are
// priced before they are built, the named spec by its mode count and the
// inline one by its modes and monomials, so an oversized request is a 422
// at parse cost, not at construction cost.
func (a *API) majoranaForm(ctx context.Context, req *compileRequest) (*fermion.MajoranaHamiltonian, *apiError) {
	_, span := obs.StartSpan(ctx, "model.build")
	defer span.End()
	if len(req.Hamiltonian) > 0 {
		span.SetAttr("model", "custom")
		h := new(fermion.Hamiltonian)
		if err := h.UnmarshalJSON(req.Hamiltonian); err != nil {
			return nil, badRequest("invalid hamiltonian: %v", err)
		}
		if h.Modes > a.maxModes {
			return nil, &apiError{code: http.StatusUnprocessableEntity,
				msg: fmt.Sprintf("hamiltonian has %d modes, server caps requests at %d", h.Modes, a.maxModes)}
		}
		if h.MonomialCount() > maxMonomials {
			return nil, &apiError{code: http.StatusUnprocessableEntity,
				msg: fmt.Sprintf("hamiltonian expands into more Majorana monomials than the server's cap of %d (2^k per term of k operators)", maxMonomials)}
		}
		return h.Majorana(1e-12), nil
	}
	span.SetAttr("model", req.Model)
	n, err := models.Modes(req.Model)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if n > a.maxModes {
		return nil, &apiError{code: http.StatusUnprocessableEntity,
			msg: fmt.Sprintf("model %q has %d modes, server caps requests at %d", req.Model, n, a.maxModes)}
	}
	h, err := models.Resolve(req.Model)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return h.Majorana(1e-12), nil
}

// compileResponse is the one result envelope every surface shares: the
// body of POST /v1/compile, the result block of GET /v1/jobs/{id}, and
// the anytime partial block (include_partial, ?result=partial). A
// partial envelope carries model/method/modes/qubits/pauli_weight and
// the mapping strings; cached/optimal/routed only apply to completed
// results.
type compileResponse struct {
	Model       string          `json:"model"`
	Method      string          `json:"method"`
	Modes       int             `json:"modes"`
	Qubits      int             `json:"qubits"`
	PauliWeight int             `json:"pauli_weight"`
	Optimal     bool            `json:"optimal,omitempty"`
	Cached      bool            `json:"cached"`
	ElapsedMS   float64         `json:"elapsed_ms"`
	Mapping     []string        `json:"mapping,omitempty"`
	Routed      *routedResponse `json:"routed,omitempty"`
	// TraceID names the request's trace (also in the Trace-Id header);
	// Trace is the buffered span timeline, embedded when the request set
	// "trace": true.
	TraceID string             `json:"trace_id,omitempty"`
	Trace   *obs.TraceSnapshot `json:"trace,omitempty"`
}

// routedResponse is the hardware-mapped view of a compile when the
// request targeted a device.
type routedResponse struct {
	Device      string `json:"device"`
	PhysQubits  int    `json:"physical_qubits"`
	SwapsAdded  int    `json:"swaps_added"`
	CNOTs       int    `json:"cnots"`
	Singles     int    `json:"u3s"`
	Depth       int    `json:"depth"`
	FinalLayout []int  `json:"final_layout"`
	// QASM is the routed circuit itself (OpenQASM 2.0), included under
	// include_strings so the CI route-smoke job can independently audit
	// coupling validity and byte-identical cache replay.
	QASM string `json:"qasm,omitempty"`
}

// mappingStrings renders a mapping's 2N Majorana Pauli strings for the
// wire. Shared by the sync, job-result, and partial envelopes so the
// three surfaces cannot drift in how they spell a mapping.
func mappingStrings(m *mapping.Mapping) []string {
	out := make([]string, len(m.Majoranas))
	for j, s := range m.Majoranas {
		out[j] = s.String()
	}
	return out
}

// resultEnvelope renders a completed compile into the shared envelope.
// withMapping gates the mapping strings, withQASM the routed circuit
// text (orders of magnitude larger), which a store hit derives here, on
// first request, under ctx. Modes come from the mapping itself, so job
// polls need no access to the original Hamiltonian.
func resultEnvelope(ctx context.Context, model string, res *compiler.Result, elapsed time.Duration, withMapping, withQASM bool) (compileResponse, error) {
	resp := compileResponse{
		Model:       model,
		Method:      res.Method,
		Modes:       res.Mapping.Modes,
		Qubits:      res.Mapping.Qubits(),
		PauliWeight: res.PredictedWeight,
		Optimal:     res.Optimal,
		Cached:      res.Cached,
		ElapsedMS:   float64(elapsed.Microseconds()) / 1000,
	}
	if withMapping {
		resp.Mapping = mappingStrings(res.Mapping)
	}
	if r := res.Routed; r != nil {
		resp.Routed = &routedResponse{
			Device:      r.Device,
			PhysQubits:  r.PhysQubits,
			SwapsAdded:  r.SwapsAdded,
			CNOTs:       r.CNOTs,
			Singles:     r.Singles,
			Depth:       r.Depth,
			FinalLayout: r.FinalLayout,
		}
		if withQASM {
			c, err := r.Circuit(ctx)
			if err != nil {
				return compileResponse{}, err
			}
			resp.Routed.QASM = c.QASM()
		}
	}
	return resp, nil
}

// writeEnvelopeErr answers a compiled result that could not be
// rendered: its routed circuit failed to derive or contradicted the
// routed metrics stored with the mapping.
func writeEnvelopeErr(w http.ResponseWriter, err error) {
	//hatt:lint-ignore apierr the request was valid; a result that contradicts its own stored summary is a server fault
	writeErr(w, http.StatusInternalServerError, err.Error())
}

// partialEnvelope renders a job's validated best-so-far into the same
// envelope a finished result uses. Method is the producing racer spec;
// the mapping strings are always included — the whole point of a
// partial is walking away with the incumbent mapping.
func partialEnvelope(model string, p compiler.PartialResult, elapsed time.Duration) *compileResponse {
	return &compileResponse{
		Model:       model,
		Method:      p.Method,
		Modes:       p.Mapping.Modes,
		Qubits:      p.Mapping.Qubits(),
		PauliWeight: p.Weight,
		ElapsedMS:   float64(elapsed.Microseconds()) / 1000,
		Mapping:     mappingStrings(p.Mapping),
	}
}

// compileSync is the production sync-compile path behind POST
// /v1/compile: the manager's compile, bounded by the request's own
// timeout (capped by the server default) and by ctx — the HTTP request
// context, so a client that disconnects stops paying for its search
// instead of burning a worker until the timeout.
func (a *API) compileSync(ctx context.Context, req *compileRequest) (*compiler.Result, int, error) {
	sreq := req.request()
	timeout := a.timeout
	if sreq.Timeout > 0 && sreq.Timeout < timeout {
		timeout = sreq.Timeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	res, err := a.mgr.compile(ctx, sreq)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, http.StatusRequestTimeout, fmt.Errorf("compilation exceeded %s", timeout)
		}
		if errors.Is(err, context.Canceled) {
			// 499 in nginx's vocabulary; the client is gone either way.
			return nil, http.StatusRequestTimeout, fmt.Errorf("request canceled: %w", err)
		}
		return nil, http.StatusBadRequest, err
	}
	return res, http.StatusOK, nil
}

func (a *API) handleCompile(w http.ResponseWriter, r *http.Request) {
	// Admission control before any decode work: past the in-flight cap,
	// another sync compile would only pile onto already-saturated
	// workers, so shed it immediately with retry guidance.
	if n := a.inflight.Add(1); a.maxInFlight > 0 && n > int64(a.maxInFlight) {
		a.inflight.Add(-1)
		a.shedSync.Add(1)
		w.Header().Set("Retry-After", retryAfterBackpressure)
		writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("service: %d synchronous compiles already in flight, retry later", a.maxInFlight))
		return
	}
	defer a.inflight.Add(-1)
	req, aerr := a.decodeCompileRequest(r)
	if aerr != nil {
		writeErr(w, aerr.code, aerr.msg)
		return
	}
	start := time.Now()
	res, code, err := a.compile(r.Context(), req)
	if err != nil {
		writeErr(w, code, err.Error())
		return
	}
	resp, err := resultEnvelope(r.Context(), req.Model, res, time.Since(start), req.Strings, req.Strings)
	if err != nil {
		writeEnvelopeErr(w, err)
		return
	}
	if sc := obs.SpanContextFrom(r.Context()); sc.Valid() {
		resp.TraceID = sc.TraceID.String()
		if req.Trace {
			// The root http.request span is still open here, so the embedded
			// timeline holds the pipeline stages; the root lands in the
			// buffer for GET /v1/traces/{id} once the response is written.
			if snap, ok := a.tracer.Snapshot(sc.TraceID); ok {
				resp.Trace = &snap
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// submitResponse is the wire shape of POST /v1/jobs.
type submitResponse struct {
	ID      string `json:"id"`
	State   State  `json:"state"`
	Deduped bool   `json:"deduped"`
	URL     string `json:"url"`
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, aerr := a.decodeCompileRequest(r)
	if aerr != nil {
		writeErr(w, aerr.code, aerr.msg)
		return
	}
	sreq := req.request()
	if req.Trace {
		// Tie the job's spans to the submitting request's trace so the
		// poller (and GET /v1/traces/{id}) can see the async compile's
		// timeline under the Trace-Id this response carries.
		sreq.Trace = obs.SpanContextFrom(r.Context())
	}
	st, deduped, err := a.mgr.Submit(sreq)
	if err != nil {
		writeAPIErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID: st.ID, State: st.State, Deduped: deduped, URL: "/v1/jobs/" + st.ID,
	})
}

// jobResponse is the wire shape of GET /v1/jobs/{id}: the status
// snapshot plus, once done, the result — and under include_partial the
// validated best-so-far block while the search is still running.
type jobResponse struct {
	Status
	Result *compileResponse `json:"result,omitempty"`
	// Partial is the job's validated best-so-far mapping, rendered in
	// the same envelope as a finished result. Present only when the
	// caller asked (include_partial=true on GET, result=partial on
	// DELETE) and a method has produced a validated incumbent.
	Partial *compileResponse `json:"partial,omitempty"`
	// Trace is the job's buffered span timeline, present when the
	// submission asked for tracing and the trace is still buffered.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

func (a *API) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := a.mgr.Status(id)
	if err != nil {
		writeAPIErr(w, err)
		return
	}
	resp := jobResponse{Status: st}
	if st.State == StateDone {
		if res, err := a.mgr.Result(id); err == nil {
			// Jobs always include the mapping strings (the async flow has
			// no second endpoint to fetch them from); the routed QASM —
			// orders of magnitude larger — only when the submission asked
			// for include_strings.
			withQASM := false
			if j, jerr := a.mgr.lookup(id); jerr == nil {
				withQASM = j.req.Strings
			}
			cr, err := resultEnvelope(r.Context(), st.Model, res, st.Elapsed, true, withQASM)
			if err != nil {
				writeEnvelopeErr(w, err)
				return
			}
			resp.Result = &cr
		}
	}
	if boolParam(r, "include_partial") {
		if p, ok, _ := a.mgr.Partial(id); ok {
			resp.Partial = partialEnvelope(st.Model, p, st.Elapsed)
		}
	}
	if st.TraceID != "" {
		if id, err := obs.ParseTraceID(st.TraceID); err == nil {
			if snap, ok := a.tracer.Snapshot(id); ok {
				resp.Trace = &snap
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// boolParam reads a query flag: present counts as true unless set to an
// explicit false value.
func boolParam(r *http.Request, name string) bool {
	if !r.URL.Query().Has(name) {
		return false
	}
	switch strings.ToLower(r.URL.Query().Get(name)) {
	case "0", "false", "no":
		return false
	}
	return true
}

// handleJobCancel aborts a job. The default response is the bare status
// snapshot (unchanged wire shape); with ?result=partial the job is
// canceled *and* its validated best-so-far comes back in the shared
// envelope — the anytime bail-out: stop paying, keep the incumbent.
func (a *API) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wantPartial := strings.EqualFold(r.URL.Query().Get("result"), "partial")
	st, err := a.mgr.Cancel(id)
	if err != nil {
		writeAPIErr(w, err)
		return
	}
	if !wantPartial {
		writeJSON(w, http.StatusOK, st)
		return
	}
	resp := jobResponse{Status: st}
	if p, ok, _ := a.mgr.Partial(id); ok {
		resp.Partial = partialEnvelope(st.Model, p, st.Elapsed)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleMethods(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"methods": compiler.Methods()})
}

func (a *API) handleDevices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"devices": arch.Catalog()})
}

// handleHealthz is the liveness probe: the process is up and serving
// HTTP. It deliberately checks nothing else — a degraded node must
// still answer 200 here so orchestrators don't restart a process that
// is alive but shedding, which is /v1/readyz's distinction to draw.
func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"version": version.Version,
		"uptime":  time.Since(a.started).String(),
	})
}

// handleReadyz is the readiness probe. A live process can still be in
// no shape to take traffic: draining for shutdown, or its disk tier
// failing writes. Those answer 503 with the reasons listed, so load
// balancers steer around the node while it recovers; 200
// {"status":"ready"} otherwise.
func (a *API) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if a.mgr != nil && a.mgr.Draining() {
		reasons = append(reasons, "draining: manager is shutting down")
	}
	if a.store != nil && !a.store.DiskHealthy() {
		reasons = append(reasons, "store: disk tier failing writes")
	}
	if len(reasons) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
		return
	}
	//hatt:lint-ignore apierr 503 is the readiness contract for a degraded node, not a handler bug
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "degraded", "reasons": reasons})
}

// statsSnapshot assembles the /v1/stats payload.
func (a *API) statsSnapshot() map[string]any {
	pending, capacity := a.mgr.QueueDepth()
	jobs := map[string]any{
		"queue_depth":    pending,
		"queue_capacity": capacity,
	}
	for state, n := range a.mgr.Counts() {
		jobs[string(state)] = n
	}
	out := map[string]any{
		"jobs":      jobs,
		"uptime_ms": time.Since(a.started).Milliseconds(),
		"version":   version.Version,
		"overload": map[string]any{
			"inflight_sync":     a.inflight.Load(),
			"max_inflight_sync": a.maxInFlight,
			"shed_sync":         a.shedSync.Load(),
		},
	}
	if a.store != nil {
		out["store"] = a.store.Stats()
	}
	portfolio := map[string]any{
		"races":    compiler.PortfolioRaceCount(),
		"outcomes": compiler.PortfolioOutcomes(),
	}
	if a.ledger != nil {
		portfolio["ledger"] = a.ledger.Snapshot()
	}
	out["portfolio"] = portfolio
	if fault.Enabled() {
		out["fault"] = map[string]any{
			"plan":     fault.Active(),
			"injected": fault.Stats(),
		}
	}
	return out
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.statsSnapshot())
}
