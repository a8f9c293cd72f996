package bench

import (
	"bytes"
	"strings"
	"testing"
)

// quickOptions keeps the harness tests fast.
func quickOptions() Options {
	return Options{
		MaxModes:   8,
		FHMaxModes: 4,
		FHBudget:   200_000,
		Shots:      40,
		GridSteps:  2,
		MaxN:       5,
		FHMaxN:     3,
	}
}

func TestTable1Quick(t *testing.T) {
	rows := Table1(quickOptions())
	if len(rows) != 2 { // H2 (4) and LiH_frz (6)
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	h2 := rows[0]
	if h2.Case != "H2_sto3g" {
		t.Fatalf("first row = %s", h2.Case)
	}
	jw := h2.Metrics["JW"]
	if jw.Weight != 32 {
		t.Errorf("H2 JW weight = %d, want 32 (paper Table I)", jw.Weight)
	}
	hatt := h2.Metrics["HATT"]
	if hatt.Weight > jw.Weight {
		t.Errorf("HATT weight %d worse than JW %d on H2", hatt.Weight, jw.Weight)
	}
	fh := h2.Metrics["FH"]
	if fh.Skip {
		t.Error("FH should run on 4 modes")
	}
	if fh.Weight > hatt.Weight {
		t.Errorf("FH %d worse than HATT %d", fh.Weight, hatt.Weight)
	}
	var buf bytes.Buffer
	PrintRows(&buf, "Table I", rows, MappingNames)
	if !strings.Contains(buf.String(), "H2_sto3g") {
		t.Error("printout missing case name")
	}
}

func TestTable2Quick(t *testing.T) {
	rows := Table2(quickOptions())
	if len(rows) != 1 { // 2x2 only at ≤ 8 modes
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Case != "2x2" || r.Modes != 8 {
		t.Fatalf("row = %+v", r)
	}
	if r.Metrics["JW"].Weight != 80 {
		t.Errorf("2x2 JW weight = %d, want 80 (paper Table II)", r.Metrics["JW"].Weight)
	}
	if r.Metrics["HATT"].Weight >= r.Metrics["JW"].Weight {
		t.Errorf("HATT %d should beat JW %d on 2x2", r.Metrics["HATT"].Weight, r.Metrics["JW"].Weight)
	}
	if !r.Metrics["FH"].Skip {
		t.Error("FH should be skipped at 8 modes with FHMaxModes=4")
	}
}

func TestTable3Quick(t *testing.T) {
	opt := quickOptions()
	opt.MaxModes = 12
	rows := Table3(opt)
	if len(rows) != 1 { // 3x2F
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if !rows[0].Metrics["FH"].Skip {
		t.Error("FH must be skipped for all neutrino cases")
	}
	if rows[0].Metrics["HATT"].Weight >= rows[0].Metrics["JW"].Weight {
		t.Errorf("HATT should beat JW on 3x2F: %d vs %d",
			rows[0].Metrics["HATT"].Weight, rows[0].Metrics["JW"].Weight)
	}
}

func TestTable4Quick(t *testing.T) {
	opt := quickOptions()
	opt.MaxModes = 6
	rows, err := Table4(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 2 molecules × 3 devices × 2 methods
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if r.CNOTs <= 0 || r.Depth <= 0 || r.Weight <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "Manhattan") {
		t.Error("printout missing device")
	}
}

// TestRoutedComparison checks that Table IV routes every case with both
// methods onto each of the paper's three devices through the facade.
func TestRoutedComparison(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxModes = 6
	rows, err := Table4(opt)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	cases := map[string]bool{}
	for _, r := range rows {
		seen[r.Case+"/"+r.Device+"/"+r.Method] = true
		cases[r.Case] = true
		if r.CNOTs <= 0 || r.Depth <= 0 || r.Weight <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if len(cases) == 0 {
		t.Fatal("no rows")
	}
	for c := range cases {
		for _, dev := range []string{"Manhattan", "Sycamore", "Montreal"} {
			for _, method := range []string{"jw", "hatt"} {
				if !seen[c+"/"+dev+"/"+method] {
					t.Errorf("%s: no %s row on %s", c, method, dev)
				}
			}
		}
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "Montreal") {
		t.Error("printout missing device column")
	}
}

func TestTable5Quick(t *testing.T) {
	opt := quickOptions()
	opt.MaxModes = 6
	rows := Table5(opt)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.JW.CNOTs <= 0 || r.HATT.CNOTs <= 0 {
			t.Errorf("%s: empty metrics", r.Case)
		}
	}
	var buf bytes.Buffer
	PrintTable5(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty printout")
	}
}

func TestTable6Quick(t *testing.T) {
	rows := Table6(quickOptions())
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.VacuumOpt {
			t.Errorf("%s: optimized HATT must preserve vacuum", r.Case)
		}
		if r.UnoptWeight <= 0 || r.OptWeight <= 0 {
			t.Errorf("%s: zero weights", r.Case)
		}
		// The paper reports ~0.43%% average difference; allow a loose bound
		// per case.
		if r.RelDiffPct > 25 || r.RelDiffPct < -25 {
			t.Errorf("%s: unopt/opt differ by %.1f%%", r.Case, r.RelDiffPct)
		}
	}
	var buf bytes.Buffer
	PrintTable6(&buf, rows)
	if !strings.Contains(buf.String(), "Table VI") {
		t.Error("printout missing title")
	}
}

func TestFigure10Quick(t *testing.T) {
	opt := quickOptions()
	cells, err := Figure10(opt)
	if err != nil {
		t.Fatal(err)
	}
	// 2 molecules × (4 mappings for H2 [FH runs at 4 modes] + 3+1 for LiH
	// [FH skipped at 6 modes? FHMaxModes=4 ⇒ 4 mappings for H2, 4 for LiH
	// without FH]) × 2×2 grid — just check shape loosely and sanity.
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	for _, c := range cells {
		if c.Variance < 0 {
			t.Errorf("negative variance in %+v", c)
		}
		if c.P1 < 1e-5-1e-12 || c.P2 > 1e-3+1e-12 {
			t.Errorf("grid point out of range: %+v", c)
		}
	}
	var buf bytes.Buffer
	PrintFigure10(&buf, cells)
	if !strings.Contains(buf.String(), "H2") {
		t.Error("printout missing molecule")
	}
}

func TestFigure11Quick(t *testing.T) {
	opt := quickOptions()
	res, err := Figure11(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Theoretical > -1.0 {
		t.Errorf("theoretical H2 energy = %v, want ≈ -1.137", res.Theoretical)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		// The noiseless circuit energy should be near the HF energy, well
		// below zero; the noisy mean should be within a loose band.
		if r.Ideal > -0.5 {
			t.Errorf("%s: noiseless energy %v suspicious", r.Mapping, r.Ideal)
		}
		if r.Variance < 0 {
			t.Errorf("%s: negative variance", r.Mapping)
		}
	}
	var buf bytes.Buffer
	PrintFigure11(&buf, res)
	if !strings.Contains(buf.String(), "IonQ") {
		t.Error("printout missing title")
	}
}

func TestFigure12Quick(t *testing.T) {
	rows := Figure12(quickOptions())
	if len(rows) != 4 { // N = 2..5
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Opt <= 0 || r.Unopt <= 0 {
			t.Errorf("N=%d: zero timings", r.Modes)
		}
		if r.Modes <= 3 && r.FH == 0 {
			t.Errorf("N=%d: FH skipped unexpectedly", r.Modes)
		}
	}
	var buf bytes.Buffer
	PrintFigure12(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 12") {
		t.Error("printout missing title")
	}
}
