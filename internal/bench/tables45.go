package bench

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/models"
)

// WorkflowMetric is one (mapping, pass) outcome for Tables IV and V.
type WorkflowMetric struct {
	CNOTs int
	U3s   int
	Depth int
}

// Table4Row reports JW-vs-HATT after the tetris-lite routing pass on one
// device.
type Table4Row struct {
	Device string
	Case   string
	Modes  int
	JW     WorkflowMetric
	HATT   WorkflowMetric
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

func jwAndHATT(c models.Case) (*fermion.MajoranaHamiltonian, *mapping.Mapping, *mapping.Mapping) {
	mh := c.Build().Majorana(1e-12)
	return mh, mapping.JordanWigner(c.Modes), search(core.Build, mh, core.Options{}).Mapping
}

// Table4 regenerates the Tetris-on-architecture comparison: circuits for
// the JW and HATT mappings are routed onto Manhattan, Sycamore, and
// Montreal with the tetris-lite pass.
func Table4(opt Options) ([]Table4Row, error) {
	devices := []*arch.Device{arch.Manhattan(), arch.Sycamore(), arch.Montreal()}
	var rows []Table4Row
	for _, c := range table45Catalog(opt) {
		mh, jw, hatt := jwAndHATT(c)
		for _, d := range devices {
			if c.Modes > d.N {
				continue
			}
			row := Table4Row{Device: d.Name, Case: c.Name, Modes: c.Modes}
			for i, m := range []*mapping.Mapping{jw, hatt} {
				logical := circuit.Compile(m.Apply(mh), circuit.OrderLexicographic)
				res, err := arch.Route(logical, d)
				if err != nil {
					return nil, err
				}
				wm := WorkflowMetric{
					CNOTs: res.Circuit.CNOTCount(),
					U3s:   res.Circuit.SingleCount(),
					Depth: res.Circuit.Depth(),
				}
				if i == 0 {
					row.JW = wm
				} else {
					row.HATT = wm
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintTable4 renders the routed-workflow comparison.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "== Table IV: tetris-lite routing on Manhattan / Sycamore / Montreal (JW vs HATT) ==")
	fmt.Fprintf(w, "%-10s %-16s %5s | %8s %8s | %8s %8s | %8s %8s\n",
		"Device", "Case", "Modes", "CX(JW)", "CX(HA)", "U3(JW)", "U3(HA)", "D(JW)", "D(HA)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-16s %5d | %8d %8d | %8d %8d | %8d %8d\n",
			r.Device, r.Case, r.Modes,
			r.JW.CNOTs, r.HATT.CNOTs, r.JW.U3s, r.HATT.U3s, r.JW.Depth, r.HATT.Depth)
	}
	fmt.Fprintln(w)
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
		mh, jw, hatt := jwAndHATT(c)
		row := Table5Row{Case: c.Name, Modes: c.Modes}
		for i, m := range []*mapping.Mapping{jw, hatt} {
			cc := circuit.SynthesizeRustiq(m.Apply(mh), 1.0)
			wm := WorkflowMetric{CNOTs: cc.CNOTCount(), U3s: cc.SingleCount(), Depth: cc.Depth()}
			if i == 0 {
				row.JW = wm
			} else {
				row.HATT = wm
			}
		}
		rows = append(rows, row)
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
