package compiler

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/obs"
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

func TestPipelineRunRecoversStagePanic(t *testing.T) {
	// A mapping one mode too wide passes VerifyIndependent, then panics
	// when synthesis applies it to the Hamiltonian — past the method
	// boundary's recover.
	wide := method{name: "jw-wide-test", run: func(_ context.Context, mh *fermion.MajoranaHamiltonian, _ Options) (*Result, error) {
		return &Result{Method: "jw-wide-test", Mapping: mapping.JordanWigner(mh.Modes + 1)}, nil
	}}
	t.Cleanup(func() {
		registry.Lock()
		delete(registry.m, wide.name)
		registry.Unlock()
	})
	if err := Register(wide); err != nil {
		t.Fatal(err)
	}
	rep, err := Pipeline{Model: "h2", Method: wide.name}.Run(context.Background())
	if err == nil || rep != nil {
		t.Fatalf("got report %v, err %v; want a recovered panic", rep, err)
	}
	for _, want := range []string{"h2", wide.name, "mapping on 5"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestOptionDefaults pins NewOptions' defaults and that the With*
// options write them; the bare beam and fh specs' defaults are
// TestBareSpecDefaults'.
func TestOptionDefaults(t *testing.T) {
	o := NewOptions()
	if o.TrotterSteps != 1 || o.TrotterTime != 1.0 || o.search.Restarts != 1 || o.search.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("bad defaults: %+v", o)
	}
	o = NewOptions(WithTrotterSteps(3), WithSeed(42), WithAnnealRestarts(0), WithParallelism(2))
	if o.TrotterSteps != 3 || o.search.Seed != 42 || o.search.Restarts != 1 || o.search.Workers != 2 {
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

// TestPipelineModelBuildSpan holds Pipeline.Run to one model.build span
// around building and expanding the Hamiltonian, named or inline.
func TestPipelineModelBuildSpan(t *testing.T) {
	for _, p := range []Pipeline{
		{Model: "h2", Method: "jw"},
		{Hamiltonian: fermion.Hop(2, 1, 0, 1), Method: "jw"},
	} {
		tr := obs.NewTracer(4)
		ctx, root := obs.StartSpan(obs.WithTracer(context.Background(), tr), "test")
		rep, err := p.Run(ctx)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		snap, _ := tr.Snapshot(root.Context().TraceID)
		var models []string
		for _, s := range snap.Spans {
			if s.Name == "model.build" {
				models = append(models, s.Attrs["model"])
			}
		}
		if len(models) != 1 || models[0] != rep.Model {
			t.Errorf("pipeline for %q: model.build spans tagged %v, want one tagged %q", rep.Model, models, rep.Model)
		}
	}
}
