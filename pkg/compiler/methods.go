package compiler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/mapping"
)

// maxBeamWidth bounds the width a beam spec may ask for: the search
// holds width partial trees and scores every candidate merge of each
// at every step, so its memory grows with the width.
const maxBeamWidth = 4096

// method is the built-in Method implementation: a named run function plus
// an optional spec-parameter parser, which Resolve calls.
type method struct {
	name  string
	run   func(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error)
	parse func(arg string) (Method, error)
}

func (m method) Name() string { return m.name }

// Compile validates inputs, converts panics escaping the method into
// errors, and delegates to the run function.
func (m method) Compile(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (res *Result, err error) {
	if mh == nil {
		return nil, errors.New("compiler: nil Hamiltonian")
	}
	if mh.Modes < 1 {
		return nil, fmt.Errorf("compiler: Hamiltonian with %d modes", mh.Modes)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("compiler: method %s panicked: %v", m.name, r)
		}
	}()
	return m.run(ctx, mh, opts)
}

// intParam gives m its one integer spec parameter, named what ("beam:8"
// sets the width to 8): set writes the value into the search options,
// the bare name runs at def, and a value outside [lo, hi] is an error.
// Resolve is the one place an integer spec parameter is parsed, so
// every surface that takes a spec shares its bounds.
func intParam(m method, what string, def, lo, hi int64, set func(*core.Options, int64)) method {
	at := func(v int64) method {
		c := m
		c.run = func(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
			set(&opts.search, v)
			return m.run(ctx, mh, opts)
		}
		return c
	}
	bare := at(def)
	bare.parse = func(arg string) (Method, error) {
		v, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || v < lo || v > hi {
			want := fmt.Sprintf("%d ≤ %s ≤ %d", lo, what, hi)
			if hi == math.MaxInt64 {
				want = fmt.Sprintf("%s ≥ %d", what, lo)
			}
			return nil, fmt.Errorf("compiler: bad %s %s %q (want %s:<%s>)", m.name, what, arg, m.name, want)
		}
		return at(v), nil
	}
	return bare
}

// constructive wraps the Hamiltonian-oblivious baselines, whose mappings
// depend only on the mode count.
func constructive(name string, build func(n int) *mapping.Mapping) method {
	return method{name: name, run: func(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
		m := build(mh.Modes)
		return &Result{Method: name, Mapping: m, PredictedWeight: m.HamiltonianWeight(mh)}, nil
	}}
}

func fromCore(name string, r *core.Result) *Result {
	return &Result{Method: name, Mapping: r.Mapping, Tree: r.Tree, PredictedWeight: r.PredictedWeight}
}

// coreOptions is the one options struct every internal/core search
// takes: the search knobs of opts, with progress and partial results
// reported under the method's name. Each search reads only its own
// fields.
func coreOptions(name string, opts Options) core.Options {
	co := opts.search
	if opts.Progress != nil {
		co.Progress = func(iter, iters, best int) {
			opts.emit(ProgressEvent{Method: name, Stage: StageSearch, Step: iter, Total: iters, BestWeight: best})
		}
	}
	if opts.Partial != nil {
		// Restart chains report improvements that are only monotone per
		// chain; gate deliveries behind a compile-wide incumbent so the
		// WithPartial contract (strictly decreasing weights) holds at any
		// restart count. The emit stays under the mutex to keep deliveries
		// ordered.
		var mu sync.Mutex
		best := int(^uint(0) >> 1)
		co.OnImprove = func(r *core.Result) {
			mu.Lock()
			defer mu.Unlock()
			if r.PredictedWeight >= best {
				return
			}
			best = r.PredictedWeight
			opts.Partial(PartialResult{Method: name, Weight: r.PredictedWeight, Mapping: r.Mapping})
		}
	}
	return co
}

// coreMethod serves a core search as the method name.
func coreMethod(name string, run func(context.Context, *fermion.MajoranaHamiltonian, core.Options) (*core.Result, error)) method {
	return method{name: name, run: func(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
		r, err := run(ctx, mh, coreOptions(name, opts))
		if err != nil {
			return nil, err
		}
		return fromCore(name, r), nil
	}}
}

func init() {
	MustRegister(constructive("jw", mapping.JordanWigner))
	MustRegister(constructive("bk", mapping.BravyiKitaev))
	MustRegister(constructive("parity", mapping.Parity))
	MustRegister(constructive("btt", mapping.BalancedTernaryTree))

	MustRegister(coreMethod("hatt", core.Build))
	MustRegister(coreMethod("hatt-unopt", core.BuildUnopt))

	MustRegister(intParam(coreMethod("beam", core.Beam), "width", 4, 1, maxBeamWidth,
		func(o *core.Options, width int64) { o.Width = int(width) }))

	fh := method{name: "fh", run: func(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
		r, err := core.Exhaustive(ctx, mh, coreOptions("fh", opts))
		if err != nil {
			return nil, err
		}
		res := fromCore("fh", &r.Result)
		res.Optimal = r.Optimal
		res.Visited = r.Visited
		return res, nil
	}}
	MustRegister(intParam(fh, "budget", 2_000_000, 0, math.MaxInt64,
		func(o *core.Options, budget int64) { o.MaxVisits = budget }))

	MustRegister(coreMethod("anneal", core.Anneal))
}
