package compiler

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestPipelineH2WithTapering(t *testing.T) {
	rep, err := Pipeline{Model: "h2", Method: "hatt", Taper: true}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Modes != 4 || rep.MajoranaTerms == 0 {
		t.Fatalf("bad model stats: %+v", rep)
	}
	if rep.Weight <= 0 || rep.CNOTs <= 0 || rep.Depth <= 0 {
		t.Fatalf("bad circuit metrics: weight=%d cnot=%d depth=%d", rep.Weight, rep.CNOTs, rep.Depth)
	}
	if !rep.VacuumPreserved {
		t.Error("HATT mapping should preserve the vacuum state")
	}
	if rep.Tapered == nil {
		t.Fatal("no tapering report")
	}
	if rep.Tapered.Qubits >= 4 {
		t.Errorf("tapering removed no qubits: %d", rep.Tapered.Qubits)
	}
	if math.Abs(rep.Tapered.GroundEnergy-(-1.1373)) > 1e-3 {
		t.Errorf("tapered ground energy %.6f, want ≈ -1.1373", rep.Tapered.GroundEnergy)
	}
}

func TestPipelineDefaultsToHATT(t *testing.T) {
	rep, err := Pipeline{Model: "hubbard:2x2"}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Method != "hatt" {
		t.Fatalf("default method = %q, want hatt", rep.Result.Method)
	}
	if rep.Modes != 8 {
		t.Fatalf("hubbard:2x2 modes = %d, want 8", rep.Modes)
	}
}

func TestPipelineBeyond64Modes(t *testing.T) {
	// 72 modes: the vacuum check must read every word of the strings.
	rep, err := Pipeline{Model: "hubbard:6x6"}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Modes != 72 || !rep.VacuumPreserved || rep.Weight != 1499 {
		t.Fatalf("hubbard:6x6: modes %d, vacuum %v, weight %d; want 72, true, 1499",
			rep.Modes, rep.VacuumPreserved, rep.Weight)
	}
}

func TestPipelineErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := (Pipeline{Method: "hatt"}).Run(ctx); err == nil {
		t.Error("no model: expected error")
	}
	if _, err := (Pipeline{Model: "nosuch", Method: "hatt"}).Run(ctx); err == nil {
		t.Error("unknown model: expected error")
	}
	if _, err := (Pipeline{Model: "h2", Method: "nosuch"}).Run(ctx); err == nil {
		t.Error("unknown method: expected error")
	}
	_, err := (Pipeline{Model: "hubbard:3x3", Method: "hatt", Taper: true}).Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "tapering limited") {
		t.Errorf("oversized tapering: got %v, want qubit-guard error", err)
	}
}

func TestOptionDefaults(t *testing.T) {
	o := NewOptions()
	if o.BeamWidth != 4 || o.VisitBudget != 2_000_000 || o.TrotterSteps != 1 || o.TrotterTime != 1.0 {
		t.Fatalf("bad defaults: %+v", o)
	}
	o = NewOptions(WithBeamWidth(9), WithVisitBudget(5), WithTrotterSteps(3), WithSeed(42))
	if o.BeamWidth != 9 || o.VisitBudget != 5 || o.TrotterSteps != 3 || o.Seed != 42 {
		t.Fatalf("options not applied: %+v", o)
	}
}

func TestParseTermOrder(t *testing.T) {
	for _, spec := range []string{"natural", "lex", "lexicographic", "greedy", "overlap"} {
		if _, err := ParseTermOrder(spec); err != nil {
			t.Errorf("ParseTermOrder(%q): %v", spec, err)
		}
	}
	if _, err := ParseTermOrder("zigzag"); err == nil {
		t.Error("ParseTermOrder(zigzag): expected error")
	}
}
