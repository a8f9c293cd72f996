// Package compiler is the public facade over the repository's
// fermion-to-qubit compilation machinery. It is the single supported way
// to turn a fermionic Hamiltonian into a mapped, synthesized result:
//
//	mh := h.Majorana(1e-12)
//	res, err := compiler.Compile(ctx, "hatt", mh)
//
// Every mapping method — the constructive baselines (jw, bk, parity,
// btt), the paper's HATT constructions (hatt, hatt-unopt, beam), and the
// Fermihedral substitutes (fh, anneal) — is a Method registered under a
// string name, resolvable with parameters embedded in the spec
// ("beam:8", "fh:500000"). Long-running methods honor context
// cancellation, panics inside a method are converted to errors at the
// boundary, and the Pipeline type runs the whole
// model → mapping → synthesis → metrics chain in one call.
package compiler

import (
	"context"
	"fmt"
	"runtime"
	"strconv"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tree"
)

// TieBreak re-exports the core tie-breaking policy for the hatt method.
type TieBreak = core.TieBreak

// Tie-breaking policies for WithTieBreak.
const (
	TieFirst   = core.TieFirst
	TieDepth   = core.TieDepth
	TieSupport = core.TieSupport
)

// Options carries every tunable a Method may consult. Construct it with
// NewOptions so zero fields get their documented defaults; methods ignore
// options that do not apply to them. The search knobs are set only
// through the With* options; beam's width and fh's visit budget are set
// only by the method spec ("beam:8", "fh:500000").
type Options struct {
	TrotterSteps int               // Trotter steps synthesized by Pipeline
	TrotterTime  float64           // total evolution time synthesized by Pipeline
	TermOrder    circuit.TermOrder // term ordering used by Pipeline synthesis
	Progress     func(ProgressEvent)
	// Store, when non-nil, is consulted before and after every compile:
	// hits skip the search, misses populate it. See WithStore.
	Store Store
	// DeviceName targets a catalog device by spec; Device targets an
	// explicitly built (custom) one and wins when both are set. Either
	// makes Compile synthesize and route the Trotter circuit, reporting
	// hardware metrics in Result.Routed. See WithDevice/WithDeviceSpec.
	DeviceName string
	Device     *arch.Device
	// Partial, when non-nil, receives best-so-far results from anytime
	// methods (anneal improvements, portfolio racer completions) while
	// the compile is still running. Deliveries are strictly
	// weight-decreasing per compile and synchronous with the search; keep
	// the callback cheap and concurrency-safe. See WithPartial.
	Partial func(PartialResult)
	// Ledger, when non-nil, records portfolio race outcomes and orders
	// racer launch for future portfolio compiles. It influences
	// scheduling only — never the compiled result — so cached results
	// remain valid whatever the ledger held. See WithMethodLedger.
	Ledger MethodLedger
	// search holds the knobs the With* search options write; each core
	// search reads only its own fields. Its Bound and BoundPos thread a
	// portfolio's shared incumbent into the racer sub-compiles and are
	// never set outside a portfolio race.
	search core.Options
}

// Option mutates Options; see the With* constructors.
type Option func(*Options)

// NewOptions applies the given options on top of the defaults: one
// Trotter step of time 1.0, lexicographic term order, one annealing
// chain, and parallelism equal to runtime.GOMAXPROCS.
func NewOptions(opts ...Option) Options {
	o := Options{
		TrotterSteps: 1,
		TrotterTime:  1.0,
		TermOrder:    circuit.OrderLexicographic,
		search:       core.Options{Workers: runtime.GOMAXPROCS(0), Restarts: 1},
	}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// WithAnnealSchedule sets the simulated-annealing schedule; zero values
// keep the method defaults (methods: anneal).
func WithAnnealSchedule(iters int, tStart, tEnd float64) Option {
	return func(o *Options) { o.search.Iters, o.search.TStart, o.search.TEnd = iters, tStart, tEnd }
}

// WithTrotterSteps sets how many Trotter steps Pipeline synthesizes.
func WithTrotterSteps(steps int) Option { return func(o *Options) { o.TrotterSteps = steps } }

// WithTrotterTime sets the total evolution time Pipeline synthesizes.
func WithTrotterTime(t float64) Option { return func(o *Options) { o.TrotterTime = t } }

// WithTermOrder sets the Trotter term ordering Pipeline synthesizes with.
func WithTermOrder(ord circuit.TermOrder) Option { return func(o *Options) { o.TermOrder = ord } }

// WithTieBreak sets the equal-weight candidate policy (methods: hatt).
func WithTieBreak(tb TieBreak) Option { return func(o *Options) { o.search.TieBreak = tb } }

// WithSeed seeds the stochastic methods (methods: anneal).
func WithSeed(seed int64) Option { return func(o *Options) { o.search.Seed = seed } }

// WithParallelism bounds the worker pool the search methods fan out
// over (beam candidate scoring, anneal restart chains, portfolio
// racers); n < 1 restores the default (runtime.GOMAXPROCS). Parallelism
// trades wall time only — for a fixed seed the compiled mapping is
// byte-identical at every value.
func WithParallelism(n int) Option {
	return func(o *Options) {
		if n < 1 {
			n = runtime.GOMAXPROCS(0)
		}
		o.search.Workers = n
	}
}

// WithAnnealRestarts runs n independent annealing chains — seeded Seed,
// Seed+1, … — concurrently (bounded by Parallelism) and keeps the
// lowest-weight result, earliest chain on ties (methods: anneal).
func WithAnnealRestarts(n int) Option {
	return func(o *Options) {
		if n < 1 {
			n = 1
		}
		o.search.Restarts = n
	}
}

// WithProgress registers a callback for ProgressEvents. Every method
// emits StageStart/StageDone; per-iteration StageSearch events currently
// come from the anneal method, and a portfolio emits StageStart/StageDone
// per racer under the racer's spec — except that a racer the shared
// incumbent bound abandons emits no StageDone. Events are delivered
// synchronously from the compiling goroutine; keep the callback cheap.
func WithProgress(fn func(ProgressEvent)) Option { return func(o *Options) { o.Progress = fn } }

// PartialResult is a validated best-so-far mapping delivered to a
// WithPartial callback while an anytime compile is still running. Weight
// is the Pauli weight of Mapping on the compiled Hamiltonian and Method
// names the producing spec (the racer spec inside a portfolio).
type PartialResult struct {
	Method  string
	Weight  int
	Mapping *mapping.Mapping
}

// WithPartial registers a callback for best-so-far results from anytime
// methods (methods: anneal, portfolio). Deliveries are strictly
// weight-decreasing within one compile and may come from worker
// goroutines; the callback must be concurrency-safe and cheap. The final
// Result is always at least as good as the last delivery.
func WithPartial(fn func(PartialResult)) Option { return func(o *Options) { o.Partial = fn } }

// MethodLedger records portfolio race outcomes keyed by a model-shape
// string and suggests a racer ordering for future races. Rank returns
// the given specs reordered by expected strength (unknown specs keep
// their relative order); Record logs one race. Implementations must be
// safe for concurrent use. The ledger steers which racer launches first
// when the worker pool is narrower than the field — it never changes the
// race's deterministic winner.
type MethodLedger interface {
	Rank(shape string, specs []string) []string
	Record(shape, winner string, losers []string)
}

// WithMethodLedger attaches a ledger consulted and updated by portfolio
// compiles (methods: portfolio). See MethodLedger for the contract.
func WithMethodLedger(l MethodLedger) Option { return func(o *Options) { o.Ledger = l } }

// Progress stages.
const (
	// StageStart is emitted once when a method begins compiling.
	StageStart = "start"
	// StageSearch is emitted periodically from iterative searches with
	// Step/Total and the best weight found so far.
	StageSearch = "search"
	// StageDone is emitted once when a method finishes, with the final
	// weight in BestWeight.
	StageDone = "done"
)

// ProgressEvent reports compilation progress to a WithProgress callback.
type ProgressEvent struct {
	Method     string // method name, e.g. "anneal"
	Stage      string // one of the Stage* constants
	Step       int    // current iteration (StageSearch)
	Total      int    // total iterations (StageSearch)
	BestWeight int    // best Pauli weight found so far
}

func (o Options) emit(ev ProgressEvent) {
	if o.Progress != nil {
		o.Progress(ev)
	}
}

// Result is a compiled fermion-to-qubit mapping. PredictedWeight is the
// Pauli weight of the Hamiltonian under the mapping (for tree
// constructions it is the settled weight the build accumulated, which
// equals the applied weight). Tree is nil for the constructive baselines,
// which are not tree-derived, and for results served from a Store, which
// persists only the mapping. Optimal and Visited are populated by the
// exhaustive fh search. Cached reports that the result came from an
// attached Store rather than a fresh search.
type Result struct {
	Method          string
	Mapping         *mapping.Mapping
	Tree            *tree.Tree
	PredictedWeight int
	Optimal         bool
	Visited         int64
	Cached          bool
	// Routed carries the routed metrics, and through Routed.Circuit the
	// routed circuit, when a device was targeted with
	// WithDevice/WithDeviceSpec; nil otherwise.
	Routed *Routed
}

// ParseTermOrder parses a term-order spec ("natural", "lex", "greedy")
// into the value WithTermOrder accepts.
func ParseTermOrder(s string) (circuit.TermOrder, error) { return circuit.ParseOrder(s) }

// Compile resolves spec against the registry and compiles mh with it.
// It is the one-call form of Resolve + Method.Compile:
//
//	res, err := compiler.Compile(ctx, "beam:8", mh)
//
// Cancelling ctx makes the long-running methods (beam, fh, anneal) return
// promptly with ctx.Err(). Compile is safe for concurrent use: to compile
// many problems at once, call it from your own goroutines, each with
// WithParallelism(1).
func Compile(ctx context.Context, spec string, mh *fermion.MajoranaHamiltonian, opts ...Option) (*Result, error) {
	return compileWith(ctx, spec, mh, NewOptions(opts...))
}

// compileWith is Compile over already-resolved Options, shared with
// Pipeline.Run so both stages see the same resolved values. With a Store
// attached it is the cache boundary: a content-address hit short-circuits
// the method (the progress callback still sees StageStart/StageDone, so
// observers need no cache awareness), a miss populates the store. A
// routed hit serves the routed summary stored with the mapping; an entry
// without one (loaded from disk) is routed once and stored
// back with it.
func compileWith(ctx context.Context, spec string, mh *fermion.MajoranaHamiltonian, o Options) (*Result, error) {
	m, err := Resolve(spec)
	if err != nil {
		return nil, err
	}
	// Resolve the target device up front so a bad spec or a device too
	// small for the problem fails before any search work (and before the
	// store is consulted — the device spec is part of the content
	// address).
	dev, err := o.routingDevice()
	if err != nil {
		return nil, err
	}
	if dev != nil && mh != nil {
		if err := dev.Fits(mh.Modes); err != nil {
			return nil, fmt.Errorf("compiler: routing onto %s: %w", dev.Name, err)
		}
	}
	cacheable := o.Store != nil && mh != nil
	var key store.Key
	if cacheable {
		key = storeKey(spec, mh, o, dev)
		_, getSpan := obs.StartSpan(ctx, "store.get")
		getSpan.SetAttr("method", m.Name())
		e, ok := o.Store.Get(key)
		getSpan.SetAttr("hit", strconv.FormatBool(ok))
		getSpan.End()
		if ok {
			res := cachedResult(e)
			if dev != nil {
				if e.Routed != nil {
					res.Routed = routedSummary(e.Routed, res, mh, dev, o)
				} else {
					if res.Routed, err = route(ctx, res.Method, res.Mapping, mh, dev, o); err != nil {
						return nil, err
					}
					storeSave(ctx, key, m.Name(), res, o)
				}
			}
			o.emit(ProgressEvent{Method: m.Name(), Stage: StageStart})
			o.emit(ProgressEvent{Method: m.Name(), Stage: StageDone, BestWeight: res.PredictedWeight})
			return res, nil
		}
	}
	o.emit(ProgressEvent{Method: m.Name(), Stage: StageStart})
	sctx, searchSpan := obs.StartSpan(ctx, "compile.search")
	searchSpan.SetAttr("method", m.Name())
	res, err := m.Compile(sctx, mh, o)
	searchSpan.End()
	if err != nil {
		return nil, err
	}
	// Route before the one Put, so the entry carries the summary; a
	// routing failure still stores the mapping.
	var routeErr error
	if dev != nil {
		res.Routed, routeErr = route(ctx, res.Method, res.Mapping, mh, dev, o)
	}
	if cacheable {
		storeSave(ctx, key, m.Name(), res, o)
	}
	if routeErr != nil {
		return nil, routeErr
	}
	o.emit(ProgressEvent{Method: m.Name(), Stage: StageDone, BestWeight: res.PredictedWeight})
	return res, nil
}
