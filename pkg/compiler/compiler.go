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
// options that do not apply to them.
type Options struct {
	BeamWidth    int               // beam search width (beam)
	VisitBudget  int64             // exhaustive search state budget, ≤0 unlimited (fh)
	AnnealIters  int               // mutation attempts, 0 = 2000·N (anneal)
	AnnealTStart float64           // initial temperature, 0 = 2.0 (anneal)
	AnnealTEnd   float64           // final temperature, 0 = 0.01 (anneal)
	TrotterSteps int               // Trotter steps synthesized by Pipeline
	TrotterTime  float64           // total evolution time synthesized by Pipeline
	TermOrder    circuit.TermOrder // term ordering used by Pipeline synthesis
	TieBreak     TieBreak          // equal-weight candidate policy (hatt)
	Seed         int64             // RNG seed, 0 = 1 (anneal)
	// Parallelism bounds the worker pool each method fans its search out
	// over (beam candidate scoring, anneal restart chains, portfolio
	// racers). It never changes a method's result: a fixed Seed produces
	// a byte-identical mapping at every Parallelism value.
	Parallelism int
	// AnnealRestarts runs that many independent annealing chains (seeded
	// Seed, Seed+1, …) and keeps the lowest-weight result, earliest chain
	// on ties (anneal).
	AnnealRestarts int
	Progress       func(ProgressEvent)
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
	// bound and boundPos thread a portfolio's shared incumbent into the
	// racer sub-compiles; they are never set outside a portfolio race.
	bound    *core.Bound
	boundPos int
}

// Option mutates Options; see the With* constructors.
type Option func(*Options)

// NewOptions applies the given options on top of the defaults:
// beam width 4, visit budget 2,000,000, one Trotter step of time 1.0,
// lexicographic term order, one annealing chain, and parallelism equal
// to runtime.GOMAXPROCS.
func NewOptions(opts ...Option) Options {
	o := Options{
		BeamWidth:      4,
		VisitBudget:    2_000_000,
		TrotterSteps:   1,
		TrotterTime:    1.0,
		TermOrder:      circuit.OrderLexicographic,
		Parallelism:    runtime.GOMAXPROCS(0),
		AnnealRestarts: 1,
	}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// WithBeamWidth sets the beam search width (methods: beam).
func WithBeamWidth(width int) Option { return func(o *Options) { o.BeamWidth = width } }

// WithVisitBudget bounds the exhaustive search's explored states;
// budget ≤ 0 means unlimited (methods: fh).
func WithVisitBudget(budget int64) Option { return func(o *Options) { o.VisitBudget = budget } }

// WithAnnealSchedule sets the simulated-annealing schedule; zero values
// keep the method defaults (methods: anneal).
func WithAnnealSchedule(iters int, tStart, tEnd float64) Option {
	return func(o *Options) { o.AnnealIters, o.AnnealTStart, o.AnnealTEnd = iters, tStart, tEnd }
}

// WithTrotterSteps sets how many Trotter steps Pipeline synthesizes.
func WithTrotterSteps(steps int) Option { return func(o *Options) { o.TrotterSteps = steps } }

// WithTrotterTime sets the total evolution time Pipeline synthesizes.
func WithTrotterTime(t float64) Option { return func(o *Options) { o.TrotterTime = t } }

// WithTermOrder sets the Trotter term ordering Pipeline synthesizes with.
func WithTermOrder(ord circuit.TermOrder) Option { return func(o *Options) { o.TermOrder = ord } }

// WithTieBreak sets the equal-weight candidate policy (methods: hatt).
func WithTieBreak(tb TieBreak) Option { return func(o *Options) { o.TieBreak = tb } }

// WithSeed seeds the stochastic methods (methods: anneal).
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithParallelism bounds the worker pool the search methods fan out
// over; n < 1 restores the default (runtime.GOMAXPROCS). Parallelism
// trades wall time only — for a fixed seed the compiled mapping is
// byte-identical at every value.
func WithParallelism(n int) Option {
	return func(o *Options) {
		if n < 1 {
			n = runtime.GOMAXPROCS(0)
		}
		o.Parallelism = n
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
		o.AnnealRestarts = n
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
// without one (loaded from disk or a peer) is routed once and stored
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
		gctx, getSpan := obs.StartSpan(ctx, "store.get")
		getSpan.SetAttr("method", m.Name())
		e, ok := storeLookup(gctx, key, o)
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
