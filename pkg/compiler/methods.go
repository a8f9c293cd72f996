package compiler

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/mapping"
)

// method is the built-in Method implementation: a named run function plus
// an optional spec-parameter parser.
type method struct {
	name  string
	run   func(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error)
	parse func(base method, arg string) (Method, error)
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

func (m method) WithParam(arg string) (Method, error) {
	if m.parse == nil {
		return nil, fmt.Errorf("compiler: method %q takes no parameter", m.name)
	}
	return m.parse(m, arg)
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

// coreOptions maps the facade options onto the one options struct every
// internal/core search takes; each search reads only its own fields.
// Progress and partial results are reported under the method's name.
func coreOptions(name string, opts Options) core.Options {
	co := core.Options{
		Workers:   opts.Parallelism,
		Bound:     opts.bound,
		BoundPos:  opts.boundPos,
		TieBreak:  opts.TieBreak,
		Width:     opts.BeamWidth,
		MaxVisits: opts.VisitBudget,
		Iters:     opts.AnnealIters,
		TStart:    opts.AnnealTStart,
		TEnd:      opts.AnnealTEnd,
		Seed:      opts.Seed,
		Restarts:  opts.AnnealRestarts,
	}
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

	beam := coreMethod("beam", core.Beam)
	beam.parse = func(base method, arg string) (Method, error) {
		width, err := strconv.Atoi(arg)
		if err != nil || width < 1 {
			return nil, fmt.Errorf("compiler: bad beam width %q (want beam:<width ≥ 1>)", arg)
		}
		inner := base.run
		base.run = func(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
			opts.BeamWidth = width
			return inner(ctx, mh, opts)
		}
		base.parse = nil
		return base, nil
	}
	MustRegister(beam)

	MustRegister(method{
		name: "fh",
		run: func(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
			r, err := core.Exhaustive(ctx, mh, coreOptions("fh", opts))
			if err != nil {
				return nil, err
			}
			res := fromCore("fh", &r.Result)
			res.Optimal = r.Optimal
			res.Visited = r.Visited
			return res, nil
		},
		parse: func(base method, arg string) (Method, error) {
			budget, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || budget < 0 {
				return nil, fmt.Errorf("compiler: bad fh visit budget %q (want fh:<budget ≥ 0>)", arg)
			}
			inner := base.run
			base.run = func(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
				opts.VisitBudget = budget
				return inner(ctx, mh, opts)
			}
			base.parse = nil
			return base, nil
		},
	})

	MustRegister(coreMethod("anneal", core.Anneal))
}
