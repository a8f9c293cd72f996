// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§V). Each experiment has a function
// returning structured rows plus a printer, shared by cmd/benchtab and the
// root-level testing.B benchmarks.
package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/pkg/compiler"
)

// Metric bundles the per-mapping numbers the tables report.
type Metric struct {
	Weight int
	CNOTs  int
	Depth  int
	Approx bool // FH result was budget-limited (the paper's '*')
	Skip   bool // case too large for this method (the paper's '–')
}

// Row is one benchmark case across all mappings.
type Row struct {
	Case    string
	Modes   int
	Metrics map[string]Metric // keyed by mapping name
}

// MappingNames is the column order of Tables I–III.
var MappingNames = []string{"JW", "BK", "BTT", "FH", "HATT"}

// Options tunes experiment scale so the same harness serves quick
// smoke-runs (benchmarks) and full table regeneration (cmd/benchtab).
type Options struct {
	MaxModes   int   // skip catalog cases above this size (0 = no limit)
	FHMaxModes int   // largest case to run the exhaustive FH search on
	FHBudget   int64 // exhaustive search visit budget (≤ 0 = unlimited)
	Shots      int   // noisy-simulation shots
	GridSteps  int   // noise grid resolution per axis (Figure 10)
	MaxN       int   // Figure 12 maximum system size
	FHMaxN     int   // Figure 12 maximum size for the exhaustive search
}

// DefaultOptions mirrors the paper's scales where feasible.
func DefaultOptions() Options {
	return Options{
		FHMaxModes: 10,
		FHBudget:   2_000_000,
		Shots:      1000,
		GridSteps:  4,
		MaxN:       20,
		FHMaxN:     5,
	}
}

// tableSpecs maps the paper's table column names onto compiler registry
// specs.
var tableSpecs = map[string]string{
	"JW":         "jw",
	"BK":         "bk",
	"BTT":        "btt",
	"HATT":       "hatt",
	"HATT-unopt": "hatt-unopt",
	"FH":         "fh",
	"FH-anneal":  "anneal",
}

// buildMapping constructs one named mapping for an n-mode Hamiltonian via
// the pkg/compiler facade. Every experiment that reports only mapping
// quality takes its mappings from here; one that times a construction or
// reads its tree calls internal/core through search.
func buildMapping(name string, n int, mh *fermion.MajoranaHamiltonian, opt Options) (*mapping.Mapping, bool, bool) {
	spec, ok := tableSpecs[name]
	if !ok {
		panic("bench: unknown mapping " + name)
	}
	fh := spec == "fh"
	if fh {
		if opt.FHMaxModes > 0 && n > opt.FHMaxModes {
			return nil, false, true
		}
		// fh:0, like any budget ≤ 0 in core, is unlimited.
		spec = fmt.Sprintf("fh:%d", max(0, opt.FHBudget))
	}
	res, err := compiler.Compile(context.Background(), spec, mh)
	if err != nil {
		panic("bench: " + name + ": " + err.Error())
	}
	approx := spec == "anneal" || (fh && !res.Optimal)
	return res.Mapping, approx, false
}

// EvaluateCase computes the Table I–III metrics of one benchmark case.
func EvaluateCase(c models.Case, names []string, opt Options) Row {
	mh := c.Build().Majorana(1e-12)
	row := Row{Case: c.Name, Modes: c.Modes, Metrics: make(map[string]Metric)}
	for _, name := range names {
		m, approx, skip := buildMapping(name, c.Modes, mh, opt)
		if skip {
			row.Metrics[name] = Metric{Skip: true}
			continue
		}
		hq := m.Apply(mh)
		cc := circuit.Compile(hq, circuit.OrderLexicographic)
		row.Metrics[name] = Metric{
			Weight: hq.Weight(),
			CNOTs:  cc.CNOTCount(),
			Depth:  cc.Depth(),
			Approx: approx,
		}
	}
	return row
}

// RunTable evaluates a catalog under the options.
func RunTable(catalog []models.Case, opt Options) []Row {
	var rows []Row
	for _, c := range catalog {
		if opt.MaxModes > 0 && c.Modes > opt.MaxModes {
			continue
		}
		rows = append(rows, EvaluateCase(c, MappingNames, opt))
	}
	return rows
}

// Table1 regenerates the electronic-structure table.
func Table1(opt Options) []Row { return RunTable(models.Electronic(), opt) }

// Table2 regenerates the Fermi–Hubbard table.
func Table2(opt Options) []Row { return RunTable(models.Hubbard(), opt) }

// Table3 regenerates the neutrino-oscillation table. FH is skipped for all
// cases, as in the paper.
func Table3(opt Options) []Row {
	o := opt
	o.FHMaxModes = 1 // all neutrino cases exceed FH's reach
	return RunTable(models.Neutrino(), o)
}

// PrintRows renders rows in the paper's table layout.
func PrintRows(w io.Writer, title string, rows []Row, names []string) {
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "%-16s %5s |", "Case", "Modes")
	for _, sec := range []string{"Pauli Weight", "CNOT Count", "Circuit Depth"} {
		fmt.Fprintf(w, " %-*s |", 9*len(names), sec)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-16s %5s |", "", "")
	for range []int{0, 1, 2} {
		for _, n := range names {
			fmt.Fprintf(w, " %8s", n)
		}
		fmt.Fprintf(w, " |")
	}
	fmt.Fprintln(w)
	cell := func(m Metric, v int) string {
		if m.Skip {
			return "–"
		}
		s := fmt.Sprintf("%d", v)
		if m.Approx {
			s += "*"
		}
		return s
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %5d |", r.Case, r.Modes)
		for _, sel := range []func(Metric) int{
			func(m Metric) int { return m.Weight },
			func(m Metric) int { return m.CNOTs },
			func(m Metric) int { return m.Depth },
		} {
			for _, n := range names {
				m := r.Metrics[n]
				fmt.Fprintf(w, " %8s", cell(m, sel(m)))
			}
			fmt.Fprintf(w, " |")
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Table6Row compares HATT(unopt) vs HATT Pauli weight.
type Table6Row struct {
	Case          string
	Modes         int
	UnoptWeight   int
	OptWeight     int
	RelDiffPct    float64
	VacuumUnopt   bool
	VacuumOpt     bool
	ConstructUsec int64
}

// search runs a core search that nothing cancels or bounds, so an error
// can only be a panic recovered inside a worker; it is re-raised.
func search[R any](run func(context.Context, *fermion.MajoranaHamiltonian, core.Options) (R, error), mh *fermion.MajoranaHamiltonian, opts core.Options) R {
	r, err := run(context.Background(), mh, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// minOf3 returns the fastest of three runs of f.
func minOf3(f func()) time.Duration {
	var best time.Duration
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); rep == 0 || d < best {
			best = d
		}
	}
	return best
}

// Table6 regenerates the HATT(unopt)-vs-HATT comparison for every catalog
// case up to 24 modes, as in the paper.
func Table6(opt Options) []Table6Row {
	var rows []Table6Row
	catalog := append(append(models.Electronic(), models.Hubbard()...), models.Neutrino()...)
	for _, c := range catalog {
		if c.Modes > 24 {
			continue
		}
		if opt.MaxModes > 0 && c.Modes > opt.MaxModes {
			continue
		}
		mh := c.Build().Majorana(1e-12)
		t0 := time.Now()
		un := search(core.BuildUnopt, mh, core.Options{})
		op := search(core.Build, mh, core.Options{})
		el := time.Since(t0).Microseconds()
		rel := 0.0
		if un.PredictedWeight > 0 {
			rel = 100 * float64(op.PredictedWeight-un.PredictedWeight) / float64(un.PredictedWeight)
		}
		rows = append(rows, Table6Row{
			Case:          c.Name,
			Modes:         c.Modes,
			UnoptWeight:   un.PredictedWeight,
			OptWeight:     op.PredictedWeight,
			RelDiffPct:    rel,
			VacuumUnopt:   un.Mapping.VacuumPreserved(),
			VacuumOpt:     op.Mapping.VacuumPreserved(),
			ConstructUsec: el,
		})
	}
	return rows
}

// PrintTable6 renders the Table VI comparison.
func PrintTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintln(w, "== Table VI: HATT (unopt) vs HATT Pauli weight (≤ 24 modes) ==")
	fmt.Fprintf(w, "%-16s %5s %12s %10s %8s %11s %9s\n",
		"Case", "Modes", "HATT(unopt)", "HATT", "Δ%", "vac(unopt)", "vac(opt)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %5d %12d %10d %7.2f%% %11v %9v\n",
			r.Case, r.Modes, r.UnoptWeight, r.OptWeight, r.RelDiffPct, r.VacuumUnopt, r.VacuumOpt)
	}
	fmt.Fprintln(w)
}
