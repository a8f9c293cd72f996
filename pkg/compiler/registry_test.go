package compiler

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/models"
)

// allSpecs is the full built-in method set, one spec per method,
// parameterized where a parameter keeps the test fast.
var allSpecs = []string{
	"jw", "bk", "parity", "btt",
	"hatt", "hatt-unopt", "beam:2", "fh:50000", "anneal",
	"portfolio", "portfolio:hatt+anneal",
}

func testMajorana(t testing.TB) *fermion.MajoranaHamiltonian {
	t.Helper()
	return models.H2STO3G().Majorana(1e-12)
}

func TestAllMethodsResolvable(t *testing.T) {
	want := []string{"anneal", "beam", "bk", "btt", "fh", "hatt", "hatt-unopt", "jw", "parity", "portfolio"}
	got := Methods()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Methods() = %v, want %v", got, want)
	}
	for _, name := range want {
		if _, err := Resolve(name); err != nil {
			t.Errorf("Resolve(%q): %v", name, err)
		}
	}
}

func TestCompileEveryMethod(t *testing.T) {
	mh := testMajorana(t)
	ctx := context.Background()
	for _, spec := range allSpecs {
		res, err := Compile(ctx, spec, mh, WithAnnealSchedule(500, 0, 0))
		if err != nil {
			t.Fatalf("Compile(%q): %v", spec, err)
		}
		if res.Mapping == nil || res.PredictedWeight <= 0 {
			t.Fatalf("Compile(%q): bad result %+v", spec, res)
		}
		if err := res.Mapping.Verify(); err != nil {
			t.Errorf("Compile(%q): mapping invalid: %v", spec, err)
		}
	}
}

func TestResolveUnknown(t *testing.T) {
	for _, spec := range []string{"", "nope", "nope:3"} {
		if _, err := Resolve(spec); err == nil {
			t.Errorf("Resolve(%q): expected error", spec)
		}
	}
}

func TestResolveBadParams(t *testing.T) {
	for _, spec := range []string{
		"jw:3", "hatt:fast", "beam:", "beam:x", "beam:0", "beam:4097", "beam:100000",
		"fh:-1", "fh:много", "portfolio:hatt+beam:4097",
	} {
		if _, err := Resolve(spec); err == nil {
			t.Errorf("Resolve(%q): expected error", spec)
		}
	}
	// The bounds are inclusive.
	for _, spec := range []string{"beam:1", "beam:4096", "fh:0", "portfolio:hatt+beam:4096"} {
		if _, err := Resolve(spec); err != nil {
			t.Errorf("Resolve(%q): %v", spec, err)
		}
	}
}

// TestResolveParamConfigures holds each spec parameter to configuring
// the search it names: the spec compiles what the core search does at
// that width or budget, and the two widths differ on this model.
func TestResolveParamConfigures(t *testing.T) {
	mh := deviceTestMH(t, "hubbard:2x2")
	ctx := context.Background()
	weights := make(map[string]int)
	for spec, co := range map[string]core.Options{
		"beam:1": {Width: 1},
		"beam:2": {Width: 2},
		"fh:50":  {MaxVisits: 50},
	} {
		m, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		if name, _, _ := strings.Cut(spec, ":"); m.Name() != name {
			t.Fatalf("Resolve(%q).Name() = %q, want %s", spec, m.Name(), name)
		}
		res, err := m.Compile(ctx, mh, NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		var want *core.Result
		var visited int64
		if m.Name() == "fh" {
			r, err := core.Exhaustive(ctx, mh, co)
			if err != nil {
				t.Fatal(err)
			}
			want, visited = &r.Result, r.Visited
		} else if want, err = core.Beam(ctx, mh, co); err != nil {
			t.Fatal(err)
		}
		if res.PredictedWeight != want.PredictedWeight || res.Visited != visited {
			t.Errorf("%s: weight %d, %d visited; core search gives %d, %d", spec, res.PredictedWeight, res.Visited, want.PredictedWeight, visited)
		}
		weights[spec] = res.PredictedWeight
	}
	if weights["beam:1"] == weights["beam:2"] {
		t.Errorf("beam:1 and beam:2 both weigh %d", weights["beam:1"])
	}
}

// TestBareSpecDefaults holds the bare beam and fh specs to their
// parameter defaults: width 4 and a budget of 2,000,000 visits.
// hubbard:2x2 gives widths 3, 4 and 8 one mapping, so molecule:10
// (where widths 3, 5, 6 and 7 weigh differently from 4) and hubbard:2x3
// (5 and 8) pin the width.
func TestBareSpecDefaults(t *testing.T) {
	for _, tc := range []struct{ model, bare, spec string }{
		{"hubbard:2x2", "beam", "beam:4"},
		{"molecule:10", "beam", "beam:4"},
		{"hubbard:2x3", "beam", "beam:4"},
		{"hubbard:2x2", "fh", "fh:2000000"},
	} {
		mh := deviceTestMH(t, tc.model)
		a, err := Compile(context.Background(), tc.bare, mh)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compile(context.Background(), tc.spec, mh)
		if err != nil {
			t.Fatal(err)
		}
		if a.PredictedWeight != b.PredictedWeight || a.Optimal != b.Optimal || a.Visited != b.Visited {
			t.Errorf("%s %s: weight %d, optimal %v, %d visited; %s: %d, %v, %d", tc.model,
				tc.bare, a.PredictedWeight, a.Optimal, a.Visited, tc.spec, b.PredictedWeight, b.Optimal, b.Visited)
		}
		for j := range a.Mapping.Majoranas {
			if !a.Mapping.Majoranas[j].Equal(b.Mapping.Majoranas[j]) {
				t.Fatalf("%s: %s and %s map M%d differently", tc.model, tc.bare, tc.spec, j)
			}
		}
	}
}

func TestDuplicateRegisterRejected(t *testing.T) {
	dummy := method{name: "dup-test", run: nil}
	t.Cleanup(func() {
		// Drop the probe entry so the global registry stays pristine for
		// tests running after this one (e.g. under -shuffle).
		registry.Lock()
		delete(registry.m, dummy.name)
		registry.Unlock()
	})
	if err := Register(dummy); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if err := Register(dummy); err == nil {
		t.Fatal("second Register: expected duplicate error")
	}
	if err := Register(method{name: ""}); err == nil {
		t.Fatal("empty name: expected error")
	}
	if err := Register(method{name: "a:b"}); err == nil {
		t.Fatal("name with colon: expected error")
	}
}

func TestPanicConvertedToError(t *testing.T) {
	m := method{name: "boom", run: func(context.Context, *fermion.MajoranaHamiltonian, Options) (*Result, error) {
		panic("kaboom")
	}}
	_, err := m.Compile(context.Background(), testMajorana(t), NewOptions())
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic converted to error, got %v", err)
	}
}

func TestNilHamiltonian(t *testing.T) {
	if _, err := Compile(context.Background(), "jw", nil); err == nil {
		t.Fatal("expected error for nil Hamiltonian")
	}
}

func TestProgressEvents(t *testing.T) {
	mh := testMajorana(t)
	var stages []string
	_, err := Compile(context.Background(), "anneal", mh,
		WithAnnealSchedule(300, 0, 0),
		WithSeed(7),
		WithProgress(func(ev ProgressEvent) { stages = append(stages, ev.Stage) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) < 3 || stages[0] != StageStart || stages[len(stages)-1] != StageDone {
		t.Fatalf("bad event sequence: %v", stages)
	}
	sawSearch := false
	for _, s := range stages {
		if s == StageSearch {
			sawSearch = true
		}
	}
	if !sawSearch {
		t.Fatalf("no %s events in %v", StageSearch, stages)
	}
}
