package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/models"
)

// BeamAblationRow measures mapping quality vs beam width.
type BeamAblationRow struct {
	Case    string
	Modes   int
	Widths  []int
	Weights []int
	Times   []time.Duration
}

// BeamAblation sweeps the beam width of the HATT beam-search extension
// over a sample of catalog cases, quantifying the quality/time trade-off
// beyond the paper's greedy construction.
func BeamAblation(widths []int, opt Options) []BeamAblationRow {
	if len(widths) == 0 {
		widths = []int{1, 2, 4, 8}
	}
	sample := []models.Case{
		models.Hubbard()[0], // 2x2
		models.Hubbard()[1], // 2x3
		models.Neutrino()[0],
		models.Electronic()[1], // LiH frz
	}
	var rows []BeamAblationRow
	for _, c := range sample {
		if opt.MaxModes > 0 && c.Modes > opt.MaxModes {
			continue
		}
		mh := c.Build().Majorana(1e-12)
		row := BeamAblationRow{Case: c.Name, Modes: c.Modes, Widths: widths}
		for _, w := range widths {
			t0 := time.Now()
			res := search(core.Beam, mh, core.Options{Width: w})
			row.Times = append(row.Times, time.Since(t0))
			row.Weights = append(row.Weights, res.PredictedWeight)
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintBeamAblation renders the beam sweep.
func PrintBeamAblation(w io.Writer, rows []BeamAblationRow) {
	fmt.Fprintln(w, "== Ablation: HATT beam width (weight @ time) ==")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %2d modes |", r.Case, r.Modes)
		for i, width := range r.Widths {
			fmt.Fprintf(w, "  k=%d: %d (%s)", width, r.Weights[i], r.Times[i].Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// OrderingAblationRow measures circuit metrics vs Trotter term ordering.
type OrderingAblationRow struct {
	Case   string
	Modes  int
	Orders []string
	CNOTs  []int
	Depths []int
}

// OrderingAblation compares the three term-ordering strategies of the
// synthesis pass on HATT-mapped Hamiltonians: the peephole optimizer can
// only cancel what the ordering puts next to each other.
func OrderingAblation(opt Options) []OrderingAblationRow {
	sample := []models.Case{
		models.Electronic()[0],
		models.Electronic()[1],
		models.Hubbard()[1],
		models.Neutrino()[0],
	}
	orders := []struct {
		name string
		ord  circuit.TermOrder
	}{
		{"natural", circuit.OrderNatural},
		{"lex", circuit.OrderLexicographic},
		{"greedy", circuit.OrderGreedyOverlap},
	}
	var rows []OrderingAblationRow
	for _, c := range sample {
		if opt.MaxModes > 0 && c.Modes > opt.MaxModes {
			continue
		}
		mh := c.Build().Majorana(1e-12)
		m, _, _ := buildMapping("HATT", c.Modes, mh, opt)
		hq := m.Apply(mh)
		row := OrderingAblationRow{Case: c.Name, Modes: c.Modes}
		for _, o := range orders {
			cc := circuit.Compile(hq, o.ord)
			row.Orders = append(row.Orders, o.name)
			row.CNOTs = append(row.CNOTs, cc.CNOTCount())
			row.Depths = append(row.Depths, cc.Depth())
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintOrderingAblation renders the ordering sweep.
func PrintOrderingAblation(w io.Writer, rows []OrderingAblationRow) {
	fmt.Fprintln(w, "== Ablation: Trotter term ordering (CNOTs / depth) ==")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %2d modes |", r.Case, r.Modes)
		for i, o := range r.Orders {
			fmt.Fprintf(w, "  %s: %d/%d", o, r.CNOTs[i], r.Depths[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// TieBreakAblationRow compares the greedy tie-breaking policies.
type TieBreakAblationRow struct {
	Case     string
	Modes    int
	Policies []string
	Weights  []int
	Depths   []int // tree depth (max string weight)
}

// TieBreakAblation sweeps the selection tie-breaking policy: total weight
// is the primary objective everywhere, so differences isolate how much
// the unspecified tie order matters (and whether the depth-aware policy
// buys shallower trees for free).
func TieBreakAblation(opt Options) []TieBreakAblationRow {
	sample := []models.Case{
		models.Hubbard()[0],
		models.Hubbard()[1],
		models.Neutrino()[0],
		models.Electronic()[1],
	}
	policies := []struct {
		name string
		tb   core.TieBreak
	}{
		{"first", core.TieFirst},
		{"depth", core.TieDepth},
		{"support", core.TieSupport},
	}
	var rows []TieBreakAblationRow
	for _, c := range sample {
		if opt.MaxModes > 0 && c.Modes > opt.MaxModes {
			continue
		}
		mh := c.Build().Majorana(1e-12)
		row := TieBreakAblationRow{Case: c.Name, Modes: c.Modes}
		for _, p := range policies {
			res := search(core.Build, mh, core.Options{TieBreak: p.tb})
			row.Policies = append(row.Policies, p.name)
			row.Weights = append(row.Weights, res.PredictedWeight)
			row.Depths = append(row.Depths, res.Tree.Depth())
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintTieBreakAblation renders the tie-break sweep.
func PrintTieBreakAblation(w io.Writer, rows []TieBreakAblationRow) {
	fmt.Fprintln(w, "== Ablation: greedy tie-breaking (weight / tree depth) ==")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %2d modes |", r.Case, r.Modes)
		for i, p := range r.Policies {
			fmt.Fprintf(w, "  %s: %d/%d", p, r.Weights[i], r.Depths[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// CacheAblationRow measures the Algorithm-3 cache speed-up.
type CacheAblationRow struct {
	Modes    int
	Cached   time.Duration
	Uncached time.Duration
}

// CacheAblation times Algorithm 2 with and without the descZ/traverse-up
// cache (Algorithm 3) on H_F = Σ M_i; both produce identical mappings
// (asserted in tests). The delta is the lookup cost plus Build's score
// table: BuildUncached re-scores every candidate at every step.
func CacheAblation(opt Options) []CacheAblationRow {
	var rows []CacheAblationRow
	for n := 4; n <= opt.MaxN; n += 4 {
		mh := allMajoranaSum(n)
		rows = append(rows, CacheAblationRow{
			Modes:    n,
			Cached:   minOf3(func() { search(core.Build, mh, core.Options{}) }),
			Uncached: minOf3(func() { core.BuildUncached(mh) }),
		})
	}
	return rows
}

// PrintCacheAblation renders the cache sweep.
func PrintCacheAblation(w io.Writer, rows []CacheAblationRow) {
	fmt.Fprintln(w, "== Ablation: Algorithm-3 caches (Alg. 2 with vs without) ==")
	fmt.Fprintf(w, "%5s %14s %14s\n", "N", "cached", "uncached")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d %14s %14s\n", r.Modes, r.Cached, r.Uncached)
	}
	fmt.Fprintln(w)
}
