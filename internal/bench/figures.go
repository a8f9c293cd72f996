package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/linalg"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/sim"
)

// Figure10Cell is one heat-map cell: bias and variance of the noisy energy
// estimate for one (molecule, mapping, p1, p2) combination.
type Figure10Cell struct {
	Molecule string
	Mapping  string
	P1, P2   float64
	Bias     float64
	Variance float64
}

// figureMappings builds the Fig. 10/11 mapping set for a Hamiltonian.
func figureMappings(n int, mh *fermion.MajoranaHamiltonian, opt Options) []*mapping.Mapping {
	ms := []*mapping.Mapping{
		mapping.JordanWigner(n),
		mapping.BravyiKitaev(n),
		mapping.BalancedTernaryTree(n),
	}
	if opt.FHMaxModes == 0 || n <= opt.FHMaxModes {
		ms = append(ms, search(core.Exhaustive, mh, core.Options{MaxVisits: opt.FHBudget}).Mapping)
	}
	ms = append(ms, search(core.Build, mh, core.Options{}).Mapping)
	return ms
}

// figure10Case runs the noise grid for one molecule.
func figure10Case(name string, h *fermion.Hamiltonian, occupied []int, opt Options) ([]Figure10Cell, error) {
	mh := h.Majorana(1e-12)
	n := h.Modes
	var cells []Figure10Cell
	steps := opt.GridSteps
	if steps < 2 {
		steps = 2
	}
	for _, m := range figureMappings(n, mh, opt) {
		hq := m.Apply(mh)
		cc := circuit.Compile(hq, circuit.OrderLexicographic)
		init, err := sim.PrepareOccupied(m, occupied)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, m.Name, err)
		}
		for i := 0; i < steps; i++ {
			// Log-spaced 1e-5…1e-4 (p1) and 1e-4…1e-3 (p2).
			p1 := 1e-5 * pow10(float64(i)/float64(steps-1))
			for j := 0; j < steps; j++ {
				p2 := 1e-4 * pow10(float64(j)/float64(steps-1))
				nm := sim.NoiseModel{P1: p1, P2: p2}
				res := sim.EstimateFrom(init, cc, hq, nm, opt.Shots, int64(1000+i*steps+j))
				cells = append(cells, Figure10Cell{
					Molecule: name, Mapping: m.Name,
					P1: p1, P2: p2,
					Bias: res.Bias, Variance: res.Variance,
				})
			}
		}
	}
	return cells, nil
}

// pow10 returns 10^f, used for log-spaced noise grids.
func pow10(f float64) float64 { return math.Pow(10, f) }

// Figure10 regenerates the noisy-simulation heat maps for H₂ and
// LiH(frz): bias and variance per mapping over the depolarizing error
// grid, each cell from opt.Shots shots.
func Figure10(opt Options) ([]Figure10Cell, error) {
	var cells []Figure10Cell
	h2, err := figure10Case("H2", models.H2STO3G(), []int{0, 1}, opt)
	if err != nil {
		return nil, err
	}
	cells = append(cells, h2...)
	lih, err := figure10Case("LiH_frz", models.SyntheticMolecule("LiH_frz", 6, 101, 0.35), []int{0, 1}, opt)
	if err != nil {
		return nil, err
	}
	return append(cells, lih...), nil
}

// PrintFigure10 renders the heat-map cells as rows.
func PrintFigure10(w io.Writer, cells []Figure10Cell) {
	fmt.Fprintln(w, "== Figure 10: noisy simulation bias/variance (depolarizing grid) ==")
	fmt.Fprintf(w, "%-8s %-6s %10s %10s %12s %12s\n", "Molecule", "Map", "p1", "p2", "bias", "variance")
	for _, c := range cells {
		fmt.Fprintf(w, "%-8s %-6s %10.2e %10.2e %12.5f %12.5f\n",
			c.Molecule, c.Mapping, c.P1, c.P2, c.Bias, c.Variance)
	}
	fmt.Fprintln(w)
}

// Figure10ExactCell is one exact-noise heat-map cell computed with the
// density-matrix simulator: the bias has no Monte-Carlo shot noise, so
// mapping-vs-mapping orderings are exact.
type Figure10ExactCell struct {
	Molecule string
	Mapping  string
	P1, P2   float64
	Bias     float64
}

// Figure10Exact recomputes the Figure-10 bias surface exactly (H₂ only —
// the density simulator is quartic in state size).
func Figure10Exact(opt Options) ([]Figure10ExactCell, error) {
	h := models.H2STO3G()
	mh := h.Majorana(1e-12)
	steps := opt.GridSteps
	if steps < 2 {
		steps = 2
	}
	var cells []Figure10ExactCell
	for _, m := range figureMappings(4, mh, opt) {
		hq := m.Apply(mh)
		cc := circuit.Compile(hq, circuit.OrderLexicographic)
		init, err := sim.PrepareOccupied(m, []int{0, 1})
		if err != nil {
			return nil, fmt.Errorf("fig10exact %s: %w", m.Name, err)
		}
		idealState := init.Clone()
		idealState.ApplyCircuit(cc)
		ideal := idealState.Expectation(hq)
		for i := 0; i < steps; i++ {
			p1 := 1e-5 * pow10(float64(i)/float64(steps-1))
			for j := 0; j < steps; j++ {
				p2 := 1e-4 * pow10(float64(j)/float64(steps-1))
				e := sim.ExactNoisyEnergy(init, cc, hq, sim.NoiseModel{P1: p1, P2: p2})
				cells = append(cells, Figure10ExactCell{
					Molecule: "H2", Mapping: m.Name, P1: p1, P2: p2,
					Bias: math.Abs(e - ideal),
				})
			}
		}
	}
	return cells, nil
}

// PrintFigure10Exact renders the exact bias surface.
func PrintFigure10Exact(w io.Writer, cells []Figure10ExactCell) {
	fmt.Fprintln(w, "== Figure 10 (exact): density-matrix bias surface ==")
	fmt.Fprintf(w, "%-8s %-6s %10s %10s %12s\n", "Molecule", "Map", "p1", "p2", "bias")
	for _, c := range cells {
		fmt.Fprintf(w, "%-8s %-6s %10.2e %10.2e %12.6f\n", c.Molecule, c.Mapping, c.P1, c.P2, c.Bias)
	}
	fmt.Fprintln(w)
}

// Figure11Row is one bar of the IonQ real-system stand-in.
type Figure11Row struct {
	Mapping  string
	Mean     float64
	Variance float64
	Ideal    float64
}

// Figure11Result bundles the rows with the theoretical ground energy.
type Figure11Result struct {
	Rows        []Figure11Row
	Theoretical float64
}

// Figure11 regenerates the H₂ real-system study with the IonQ Forte 1
// noise profile: per mapping, the mean and variance of opt.Shots measured
// energies, against the exact ground energy.
func Figure11(opt Options) (Figure11Result, error) {
	hF := models.H2STO3G()
	mh := hF.Majorana(1e-12)
	theory := linalg.GroundEnergy(mapping.JordanWigner(4).Apply(mh))
	out := Figure11Result{Theoretical: theory}
	nm := sim.IonQForte1()
	for _, m := range figureMappings(4, mh, opt) {
		hq := m.Apply(mh)
		cc := circuit.Compile(hq, circuit.OrderLexicographic)
		init, err := sim.PrepareOccupied(m, []int{0, 1})
		if err != nil {
			return out, fmt.Errorf("fig11 %s: %w", m.Name, err)
		}
		res := sim.EstimateFrom(init, cc, hq, nm, opt.Shots, 77)
		out.Rows = append(out.Rows, Figure11Row{
			Mapping: m.Name, Mean: res.Mean, Variance: res.Variance, Ideal: res.Ideal,
		})
	}
	return out, nil
}

// PrintFigure11 renders the IonQ stand-in results.
func PrintFigure11(w io.Writer, res Figure11Result) {
	fmt.Fprintln(w, "== Figure 11: H2 energy on IonQ-Forte-1 noise profile ==")
	fmt.Fprintf(w, "theoretical ground energy = %.4f Ha\n", res.Theoretical)
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "Map", "mean", "variance", "noiseless")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-8s %12.4f %12.4f %12.4f\n", r.Mapping, r.Mean, r.Variance, r.Ideal)
	}
	fmt.Fprintln(w)
}

// Figure12Row is one scalability measurement on H_F = Σ_i M_i.
type Figure12Row struct {
	Modes     int
	FH        time.Duration // 0 when skipped
	FHOptimal bool
	Unopt     time.Duration // Algorithm 1, O(N⁴)
	Opt       time.Duration // Algorithms 2+3, O(N³)
}

// allMajoranaSum builds the paper's Fig. 12 benchmark Hamiltonian
// H_F = Σ_{i=0}^{2N−1} M_i directly in Majorana form.
func allMajoranaSum(n int) *fermion.MajoranaHamiltonian {
	mh := &fermion.MajoranaHamiltonian{Modes: n}
	for i := 0; i < 2*n; i++ {
		mh.Terms = append(mh.Terms, fermion.MajoranaTerm{Coeff: 1, Indices: []int{i}})
	}
	return mh
}

// Figure12 measures construction wall time for the exhaustive FH
// substitute, HATT without optimization (Algorithm 1), and optimized HATT
// (Algorithms 2+3) at increasing sizes.
func Figure12(opt Options) []Figure12Row {
	var rows []Figure12Row
	minOf3 := func(f func()) time.Duration {
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0); rep == 0 || d < best {
				best = d
			}
		}
		return best
	}
	for n := 2; n <= opt.MaxN; n++ {
		mh := allMajoranaSum(n)
		row := Figure12Row{Modes: n}
		if n <= opt.FHMaxN {
			t0 := time.Now()
			res := search(core.Exhaustive, mh, core.Options{MaxVisits: opt.FHBudget})
			row.FH = time.Since(t0)
			row.FHOptimal = res.Optimal
		}
		row.Unopt = minOf3(func() { search(core.BuildUnopt, mh, core.Options{}) })
		row.Opt = minOf3(func() { search(core.Build, mh, core.Options{}) })
		rows = append(rows, row)
	}
	return rows
}

// PrintFigure12 renders the scalability rows.
func PrintFigure12(w io.Writer, rows []Figure12Row) {
	fmt.Fprintln(w, "== Figure 12: construction time on H_F = Σ M_i ==")
	fmt.Fprintf(w, "%5s %14s %5s %14s %14s\n", "N", "FH", "opt?", "HATT(unopt)", "HATT")
	for _, r := range rows {
		fh := "–"
		if r.FH > 0 {
			fh = r.FH.String()
		}
		fmt.Fprintf(w, "%5d %14s %5v %14s %14s\n", r.Modes, fh, r.FHOptimal, r.Unopt, r.Opt)
	}
	fmt.Fprintln(w)
}
