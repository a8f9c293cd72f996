package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/circuit"
	"repro/internal/models"
	"repro/pkg/compiler"
)

// RoutedRow is one (device, case, method) cell of Table IV, produced
// through the pkg/compiler facade's device-aware path (WithDevice), so the
// table measures exactly what the public API serves.
type RoutedRow struct {
	Device string
	Case   string
	Modes  int
	Method string
	Weight int
	Swaps  int
	CNOTs  int
	U3s    int
	Depth  int
}

// table45Catalog is the molecule subset used for the workflow tables:
// the extended catalog (6-31G and freeze-core variants, as in the paper's
// Tables IV/V) limited to sizes where routing over the 27-qubit Montreal
// fits.
func table45Catalog(opt Options) []models.Case {
	var out []models.Case
	for _, c := range models.ElectronicExtended() {
		if c.Modes > 20 {
			continue
		}
		if opt.MaxModes > 0 && c.Modes > opt.MaxModes {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Table4 regenerates the Tetris-on-architecture comparison: every catalog
// case is compiled with JW and HATT and routed onto Manhattan, Sycamore
// and Montreal with the tetris-lite pass, via compiler.Compile +
// WithDevice.
func Table4(opt Options) ([]RoutedRow, error) {
	ctx := context.Background()
	var rows []RoutedRow
	for _, c := range table45Catalog(opt) {
		mh := c.Build().Majorana(1e-12)
		for _, dev := range []string{"manhattan", "sycamore", "montreal"} {
			for _, method := range []string{"jw", "hatt"} {
				res, err := compiler.Compile(ctx, method, mh, compiler.WithDevice(dev))
				if err != nil {
					return nil, fmt.Errorf("bench: %s/%s on %s: %w", c.Name, method, dev, err)
				}
				r := res.Routed
				rows = append(rows, RoutedRow{
					Device: r.Device,
					Case:   c.Name,
					Modes:  c.Modes,
					Method: method,
					Weight: res.PredictedWeight,
					Swaps:  r.SwapsAdded,
					CNOTs:  r.CNOTs,
					U3s:    r.Singles,
					Depth:  r.Depth,
				})
			}
		}
	}
	return rows, nil
}

// PrintTable4 renders the routed comparison, one row per method.
func PrintTable4(w io.Writer, rows []RoutedRow) {
	fmt.Fprintln(w, "== Table IV: tetris-lite routing on Manhattan / Sycamore / Montreal (JW vs HATT) ==")
	fmt.Fprintf(w, "%-10s %-16s %5s %-10s | %8s %8s %8s %8s %8s\n",
		"Device", "Case", "Modes", "Method", "Weight", "Swaps", "CX", "U3", "Depth")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-16s %5d %-10s | %8d %8d %8d %8d %8d\n",
			r.Device, r.Case, r.Modes, r.Method, r.Weight, r.Swaps, r.CNOTs, r.U3s, r.Depth)
	}
	fmt.Fprintln(w)
}

// WorkflowMetric is one (mapping, pass) outcome for Table V.
type WorkflowMetric struct {
	CNOTs int
	U3s   int
	Depth int
}

// Table5Row reports JW-vs-HATT under the rustiq-lite synthesis pass.
type Table5Row struct {
	Case  string
	Modes int
	JW    WorkflowMetric
	HATT  WorkflowMetric
}

// Table5 regenerates the Rustiq workflow comparison with the rustiq-lite
// balanced-tree synthesis.
func Table5(opt Options) []Table5Row {
	var rows []Table5Row
	for _, c := range table45Catalog(opt) {
		if c.Modes > 14 {
			continue // greedy chaining is quadratic in term count
		}
		mh := c.Build().Majorana(1e-12)
		synthesize := func(name string) WorkflowMetric {
			m, _, _ := buildMapping(name, c.Modes, mh, opt)
			cc := circuit.SynthesizeRustiq(m.Apply(mh), 1.0)
			return WorkflowMetric{CNOTs: cc.CNOTCount(), U3s: cc.SingleCount(), Depth: cc.Depth()}
		}
		rows = append(rows, Table5Row{Case: c.Name, Modes: c.Modes, JW: synthesize("JW"), HATT: synthesize("HATT")})
	}
	return rows
}

// PrintTable5 renders the rustiq-lite comparison.
func PrintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "== Table V: rustiq-lite synthesis (JW vs HATT) ==")
	fmt.Fprintf(w, "%-16s %5s | %8s %8s | %8s %8s | %8s %8s\n",
		"Case", "Modes", "CX(JW)", "CX(HA)", "U3(JW)", "U3(HA)", "D(JW)", "D(HA)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %5d | %8d %8d | %8d %8d | %8d %8d\n",
			r.Case, r.Modes,
			r.JW.CNOTs, r.HATT.CNOTs, r.JW.U3s, r.HATT.U3s, r.JW.Depth, r.HATT.Depth)
	}
	fmt.Fprintln(w)
}
