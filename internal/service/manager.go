// Package service turns the pkg/compiler facade into a long-running
// compilation service: a job manager executing async compile jobs over a
// bounded worker pool (manager.go) and the JSON-over-HTTP API the hattd
// daemon mounts (api.go).
//
// The manager's contract mirrors what a multi-tenant front end needs:
//   - Submit is non-blocking with backpressure — a nearly-full queue
//     sheds new work with ErrOverloaded and a hard-full queue returns
//     ErrQueueFull (the HTTP layer maps both to 429 with a Retry-After)
//     instead of stalling the caller.
//   - Identical in-flight jobs deduplicate: a submission whose content
//     address (Hamiltonian fingerprint, method spec, options digest)
//     matches a queued or running job attaches to that job instead of
//     enqueueing a duplicate search.
//   - Every job compiles under its own context; Cancel aborts a queued
//     or running job without touching its neighbors.
//   - Progress snapshots come straight from the facade's WithProgress
//     events, so pollers see live search iteration counts.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/fermion"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/pkg/compiler"
)

// Sentinel errors the HTTP layer translates into status codes.
var (
	ErrQueueFull  = errors.New("service: job queue full")
	ErrOverloaded = errors.New("service: queue nearly full, shedding load")
	ErrClosed     = errors.New("service: manager shut down")
	ErrNotFound   = errors.New("service: no such job")
	ErrNotDone    = errors.New("service: job not finished")
)

// Config sizes the manager.
type Config struct {
	// Workers is the number of jobs compiled concurrently (each job runs
	// single-threaded search parallelism unless its options say
	// otherwise). Non-positive means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the pending-job queue; submissions beyond it get
	// ErrQueueFull. Non-positive means DefaultQueueDepth.
	QueueDepth int
	// ShedDepth is the queue depth at which Submit starts refusing new
	// (non-deduplicated) work with ErrOverloaded — graceful load
	// shedding with client guidance before the queue is hard-full.
	// Non-positive or > QueueDepth means 7/8 of QueueDepth, minimum 1.
	ShedDepth int
	// Store, when non-nil, is attached to every job via WithStore.
	Store compiler.Store
	// Ledger, when non-nil, is attached to every job via
	// WithMethodLedger: completed portfolio races record their outcome
	// and future races consult it for launch ordering.
	Ledger compiler.MethodLedger
	// KeepFinished bounds how many finished jobs remain pollable; the
	// oldest are forgotten first. Non-positive means DefaultKeepFinished.
	KeepFinished int
	// MaxJobTime is the server-side ceiling on any single job's compile
	// time — the async counterpart of the sync endpoint's timeout, so a
	// handful of pathological requests can never pin the worker pool
	// forever. A request's own Timeout may only tighten it.
	// Non-positive means DefaultMaxJobTime.
	MaxJobTime time.Duration
	// Tracer, when non-nil, records a job.run span (plus the compile
	// pipeline's stage spans beneath it) for every job whose Request
	// carries a valid trace context. NewAPI injects its own tracer here
	// when none is configured.
	Tracer *obs.Tracer
}

// Defaults for Config's non-positive fields.
const (
	DefaultQueueDepth   = 64
	DefaultKeepFinished = 1024
	DefaultMaxJobTime   = time.Hour
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Request describes one compilation. Either Model (a models.Resolve
// spec) or Hamiltonian must be set; Hamiltonian wins when both are.
type Request struct {
	Model       string
	Hamiltonian *fermion.MajoranaHamiltonian
	Spec        string // method spec; "" means "hatt"
	Options     []compiler.Option
	// Timeout bounds the job's compile once it starts running; ≤ 0
	// means unbounded (until Cancel or Shutdown).
	Timeout time.Duration
	// Strings records whether the submission asked for include_strings;
	// the HTTP layer uses it to decide if job polls embed the routed
	// circuit's QASM text.
	Strings bool
	// Trace, when valid, is the trace context of the submitting request:
	// the job's run records its spans under that trace ID, and Status
	// reports it so pollers can fetch the timeline.
	Trace obs.SpanContext
}

// Progress is a point-in-time snapshot of a running job's search.
type Progress struct {
	Stage      string `json:"stage,omitempty"`
	Step       int    `json:"step,omitempty"`
	Total      int    `json:"total,omitempty"`
	BestWeight int    `json:"best_weight,omitempty"`
}

// Status is the pollable view of a job.
type Status struct {
	ID       string        `json:"id"`
	State    State         `json:"state"`
	Model    string        `json:"model"`
	Spec     string        `json:"spec"`
	Attached int           `json:"attached"` // submissions deduplicated onto this job
	Progress Progress      `json:"progress"`
	Error    string        `json:"error,omitempty"`
	Created  time.Time     `json:"created"`
	Elapsed  time.Duration `json:"elapsed"`
	// ProgressByMethod breaks Progress down per reporting method, which
	// matters for portfolio jobs where several racers report
	// concurrently: the aggregate Progress carries the best (lowest)
	// weight any method reached, this map carries each racer's own view.
	ProgressByMethod map[string]Progress `json:"progress_by_method,omitempty"`
	// TraceID names the trace the job's spans record under, when the
	// submission carried one.
	TraceID string `json:"trace_id,omitempty"`
}

// job is the manager's internal record.
type job struct {
	id    string
	key   string // content address for dedup
	model string
	spec  string
	req   Request

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state

	mu       sync.Mutex
	state    State
	progress map[string]Progress // keyed by reporting method (racer spec)
	lastEv   string              // method of the most recent progress event
	partial  *compiler.PartialResult
	result   *compiler.Result
	err      error
	attached int
	created  time.Time
	started  time.Time
	finished time.Time
}

// Manager owns the queue, the worker pool, and the job table.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[string]*job // dedup key → queued/running job
	order    []string        // finished-job retention ring, oldest first
	seq      int64
	closed   bool

	queue  chan *job
	root   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a manager and starts its workers.
func New(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.KeepFinished <= 0 {
		cfg.KeepFinished = DefaultKeepFinished
	}
	if cfg.ShedDepth <= 0 || cfg.ShedDepth > cfg.QueueDepth {
		cfg.ShedDepth = max(1, cfg.QueueDepth*7/8)
	}
	if cfg.MaxJobTime <= 0 {
		cfg.MaxJobTime = DefaultMaxJobTime
	}
	//hatt:lint-ignore ctxflow daemon root context: the manager owns its own lifetime, not a request's
	root, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:      cfg,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		queue:    make(chan *job, cfg.QueueDepth),
		root:     root,
		cancel:   cancel,
	}
	m.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go m.worker()
	}
	return m
}

// setTracer installs a span buffer when the config has none; NewAPI
// calls it so the HTTP layer and the job manager share one trace store.
// Must run before the first traced submission.
func (m *Manager) setTracer(tr *obs.Tracer) {
	m.mu.Lock()
	if m.cfg.Tracer == nil {
		m.cfg.Tracer = tr
	}
	m.mu.Unlock()
}

// resolve normalizes a request into the pieces the manager keys on.
func resolve(req Request) (mh *fermion.MajoranaHamiltonian, spec, model, key string, err error) {
	spec = req.Spec
	if spec == "" {
		spec = "hatt"
	}
	if _, err = compiler.Resolve(spec); err != nil {
		return nil, "", "", "", err
	}
	mh = req.Hamiltonian
	model = req.Model
	if mh == nil {
		if model == "" {
			return nil, "", "", "", errors.New("service: request needs a Model spec or a Hamiltonian")
		}
		h, rerr := models.Resolve(model)
		if rerr != nil {
			return nil, "", "", "", rerr
		}
		mh = h.Majorana(1e-12)
	} else if model == "" {
		model = "custom"
	}
	o := compiler.NewOptions(req.Options...)
	// The dedup key is the content address plus the time budget: a
	// submitter with a generous timeout must not attach to a job about
	// to be killed by a stingy one.
	key = fmt.Sprintf("%s|%s|%s|t=%d", mh.Fingerprint(), spec, o.Digest(), req.Timeout)
	return mh, spec, model, key, nil
}

// Submit validates the request and enqueues a job, returning its status.
// If an identical job (same content address) is already queued or
// running, the submission attaches to it instead and deduped is true.
// A full queue fails fast with ErrQueueFull.
func (m *Manager) Submit(req Request) (st Status, deduped bool, err error) {
	mh, spec, model, key, err := resolve(req)
	if err != nil {
		return Status{}, false, err
	}
	req.Hamiltonian = mh
	req.Spec = spec

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, false, ErrClosed
	}
	if j, ok := m.inflight[key]; ok {
		j.mu.Lock()
		j.attached++
		j.mu.Unlock()
		st = j.status()
		m.mu.Unlock()
		return st, true, nil
	}
	// Shed before the queue is hard-full: deduplicated attaches above are
	// free and always admitted, but net-new work beyond the shed depth is
	// refused while there is still headroom, so the answer is a prompt
	// 429 with retry guidance rather than a cliff.
	if len(m.queue) >= m.cfg.ShedDepth {
		m.mu.Unlock()
		return Status{}, false, ErrOverloaded
	}
	m.seq++
	jctx, jcancel := context.WithCancel(m.root)
	j := &job{
		id:      fmt.Sprintf("job-%06d", m.seq),
		key:     key,
		model:   model,
		spec:    spec,
		req:     req,
		ctx:     jctx,
		cancel:  jcancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		jcancel()
		return Status{}, false, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.inflight[key] = j
	m.mu.Unlock()
	return j.status(), false, nil
}

// worker drains the queue until Shutdown closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

// run executes one job to a terminal state.
func (m *Manager) run(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		m.finish(j)
		return
	}
	if err := j.ctx.Err(); err != nil {
		j.state = StateCanceled
		j.err = err
		j.mu.Unlock()
		m.finish(j)
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()

	opts := append([]compiler.Option(nil), j.req.Options...)
	// Progress snapshots key by the reporting method: a portfolio's
	// racers report concurrently, and a single map slot would let
	// whichever racer spoke last overwrite the best weight seen so far.
	opts = append(opts, compiler.WithProgress(func(ev compiler.ProgressEvent) {
		j.mu.Lock()
		if j.progress == nil {
			j.progress = make(map[string]Progress)
		}
		j.progress[ev.Method] = Progress{Stage: ev.Stage, Step: ev.Step, Total: ev.Total, BestWeight: ev.BestWeight}
		j.lastEv = ev.Method
		j.mu.Unlock()
	}))
	// Anytime best-so-far: partials are re-validated (the same
	// anticommutation check the disk tier runs on loaded entries)
	// before they become pollable, and only a strict improvement
	// replaces the incumbent — a poller's partial weight never rises.
	opts = append(opts, compiler.WithPartial(func(p compiler.PartialResult) {
		if p.Mapping == nil || p.Mapping.Verify() != nil {
			return
		}
		j.mu.Lock()
		if j.partial == nil || p.Weight < j.partial.Weight {
			pc := p
			j.partial = &pc
		}
		j.mu.Unlock()
	}))
	if m.cfg.Store != nil {
		opts = append(opts, compiler.WithStore(m.cfg.Store))
	}
	if m.cfg.Ledger != nil {
		opts = append(opts, compiler.WithMethodLedger(m.cfg.Ledger))
	}
	timeout := m.cfg.MaxJobTime
	if j.req.Timeout > 0 && j.req.Timeout < timeout {
		timeout = j.req.Timeout
	}
	ctx, cancel := context.WithTimeout(j.ctx, timeout)
	defer cancel()
	// A submission that carried a trace context records the whole run —
	// the job.run span plus the compile pipeline's stage spans beneath it
	// — under the submitting request's trace ID.
	var span *obs.Span
	if m.cfg.Tracer != nil && j.req.Trace.Valid() {
		ctx = obs.WithTracer(ctx, m.cfg.Tracer)
		ctx = obs.WithSpanContext(ctx, j.req.Trace)
		ctx, span = obs.StartSpan(ctx, "job.run")
		span.SetAttr("job_id", j.id)
		span.SetAttr("method", j.spec)
	}
	res, err := m.execute(ctx, j, opts)
	span.End()

	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
	case errors.Is(err, context.Canceled) && j.ctx.Err() != nil:
		j.state = StateCanceled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	state, elapsed := j.state, j.finished.Sub(j.started)
	j.mu.Unlock()
	logger := obs.L(ctx).With("job_id", j.id, "model", j.model, "method", j.spec,
		"state", string(state), "elapsed_ms", float64(elapsed.Microseconds())/1000)
	if state == StateFailed {
		logger.Warn("job finished", "error", err.Error())
	} else {
		logger.Info("job finished")
	}
	m.finish(j)
}

// execute runs one job's compile under a panic shield: a worker that
// panics — from a method bug or an injected service.worker.panic fault
// — fails its own job instead of crashing the daemon and silently
// shrinking the pool. The service.queue.stall failpoint holds the
// worker here first, simulating a wedged dequeue path so overload
// shedding and readiness can be exercised under a stalled queue.
func (m *Manager) execute(ctx context.Context, j *job, opts []compiler.Option) (res *compiler.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, fmt.Errorf("service: compile worker panicked: %v", rec)
		}
	}()
	if serr := fault.PointCtx(ctx, "service.queue.stall"); serr != nil {
		return nil, serr
	}
	if ferr := fault.Point("service.worker.panic"); ferr != nil {
		panic(ferr)
	}
	return compiler.Compile(ctx, j.spec, j.req.Hamiltonian, opts...)
}

// finish retires a job from the dedup index, closes its done channel,
// and trims the retention ring.
func (m *Manager) finish(j *job) {
	m.mu.Lock()
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	m.order = append(m.order, j.id)
	for len(m.order) > m.cfg.KeepFinished {
		delete(m.jobs, m.order[0])
		m.order = m.order[1:]
	}
	m.mu.Unlock()
	j.cancel() // release the context regardless of how the job ended
	close(j.done)
}

// status snapshots a job; callers must not hold j.mu.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:       j.id,
		State:    j.state,
		Model:    j.model,
		Spec:     j.spec,
		Attached: j.attached,
		Error:    "",
		Created:  j.created,
	}
	if len(j.progress) > 0 {
		st.ProgressByMethod = make(map[string]Progress, len(j.progress))
		for m, p := range j.progress {
			st.ProgressByMethod[m] = p
		}
		// Aggregate view: the stage/step of whichever method reported
		// last, carrying the best (lowest) weight any method reached.
		st.Progress = j.progress[j.lastEv]
		for _, p := range j.progress {
			if p.BestWeight > 0 && (st.Progress.BestWeight == 0 || p.BestWeight < st.Progress.BestWeight) {
				st.Progress.BestWeight = p.BestWeight
			}
		}
	}
	if j.req.Trace.Valid() {
		st.TraceID = j.req.Trace.TraceID.String()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	switch {
	case !j.finished.IsZero() && !j.started.IsZero():
		st.Elapsed = j.finished.Sub(j.started)
	case !j.started.IsZero():
		st.Elapsed = time.Since(j.started)
	}
	return st
}

// lookup fetches a job by ID.
func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Status returns the pollable snapshot of a job.
func (m *Manager) Status(id string) (Status, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Status{}, err
	}
	return j.status(), nil
}

// Result returns a finished job's compiled result. ErrNotDone while the
// job is queued or running; the job's own error once it failed or was
// canceled.
func (m *Manager) Result(id string) (*compiler.Result, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed, StateCanceled:
		return nil, j.err
	default:
		return nil, ErrNotDone
	}
}

// Partial returns a job's validated best-so-far result, when any method
// has produced one. The snapshot is monotone — successive calls never
// report a worse weight — and survives the job's terminal state, so a
// canceled anytime job still serves its incumbent. ok is false while no
// partial has been validated yet.
func (m *Manager) Partial(id string) (p compiler.PartialResult, ok bool, err error) {
	j, lerr := m.lookup(id)
	if lerr != nil {
		return compiler.PartialResult{}, false, lerr
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.partial == nil {
		return compiler.PartialResult{}, false, nil
	}
	return *j.partial, true, nil
}

// Cancel aborts a queued or running job. Canceling a finished job is a
// no-op; an unknown ID is ErrNotFound.
func (m *Manager) Cancel(id string) (Status, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Status{}, err
	}
	// Retire the job from the dedup index right away: a canceled job
	// must not capture later identical submissions (they would inherit
	// its doom instead of compiling).
	m.mu.Lock()
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	m.mu.Unlock()
	j.mu.Lock()
	if j.state == StateQueued {
		// Mark immediately so a poll never sees "queued" on a canceled
		// job; the worker will skip it when it surfaces.
		j.state = StateCanceled
		j.err = context.Canceled
	}
	j.mu.Unlock()
	j.cancel()
	return j.status(), nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Status{}, err
	}
	select {
	case <-j.done:
		return j.status(), nil
	case <-ctx.Done():
		return j.status(), ctx.Err()
	}
}

// QueueDepth returns (pending, capacity).
func (m *Manager) QueueDepth() (int, int) { return len(m.queue), cap(m.queue) }

// Draining reports whether Shutdown has begun: new submissions are
// refused and the readiness probe should steer traffic elsewhere while
// queued and running jobs finish.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Counts tallies jobs by state across the retained table.
func (m *Manager) Counts() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts := make(map[State]int)
	for _, j := range m.jobs {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	return counts
}

// Shutdown stops accepting submissions and drains: queued and running
// jobs finish normally unless ctx expires first, at which point every
// remaining job is canceled and Shutdown returns ctx.Err(). Idempotent.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		m.cancel()
		return nil
	case <-ctx.Done():
		m.cancel() // abort in-flight jobs
		<-drained
		return ctx.Err()
	}
}
