package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tree"
)

// Whole-construction invariants, property-checked over random Hamiltonians.

func TestBuildInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		mh := randomFermionic(n, 6+r.Intn(10), seed)
		if len(mh.Terms) == 0 {
			return true
		}
		res := run(t, Build, mh, Options{})
		if err := res.Mapping.Verify(); err != nil {
			return false
		}
		if err := res.Mapping.VerifyIndependent(); err != nil {
			return false
		}
		if !res.Mapping.VacuumPreserved() {
			return false
		}
		if err := res.Tree.Validate(); err != nil {
			return false
		}
		return res.Mapping.Apply(mh).Weight() == res.PredictedWeight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOptimizerChainProperty(t *testing.T) {
	// Exhaustive ≤ beam ≤ greedy-unopt is not guaranteed (vacuum
	// constraints differ), but exhaustive must beat or match everything
	// when complete.
	f := func(seed int64) bool {
		mh := randomFermionic(3, 6, seed)
		if len(mh.Terms) == 0 {
			return true
		}
		ex := run(t, Exhaustive, mh, Options{MaxVisits: 0})
		if !ex.Optimal {
			return false
		}
		for _, w := range []int{
			run(t, Build, mh, Options{}).PredictedWeight,
			run(t, BuildUnopt, mh, Options{}).PredictedWeight,
			run(t, Beam, mh, Options{Width: 4}).PredictedWeight,
			run(t, Anneal, mh, Options{Iters: 300, Seed: seed + 1}).PredictedWeight,
		} {
			if ex.PredictedWeight > w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateTreeLowerBoundedByExhaustive(t *testing.T) {
	// Any random complete ternary tree scores at least the exhaustive
	// optimum.
	r := rand.New(rand.NewSource(17))
	mh := randomFermionic(4, 10, 17)
	ex := run(t, Exhaustive, mh, Options{MaxVisits: 0})
	for trial := 0; trial < 20; trial++ {
		tr := randomCompleteTree(r, 4)
		if w := EvaluateTree(mh, tr); w < ex.PredictedWeight {
			t.Fatalf("random tree weight %d beats proven optimum %d", w, ex.PredictedWeight)
		}
	}
}

// randomCompleteTree mirrors the tree-package test helper (bottom-up
// random merges).
func randomCompleteTree(r *rand.Rand, n int) *tree.Tree {
	t := &tree.Tree{N: n, Leaves: make([]*tree.Node, 2*n+1)}
	pool := make([]*tree.Node, 2*n+1)
	for i := range pool {
		leaf := &tree.Node{ID: i}
		pool[i] = leaf
		t.Leaves[i] = leaf
	}
	for i := 0; i < n; i++ {
		r.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		parent := &tree.Node{ID: 2*n + 1 + i, Qubit: i}
		parent.SetChildren(pool[0], pool[1], pool[2])
		pool = append(pool[3:], parent)
	}
	t.Root = pool[0]
	return t
}

func TestConstructionsDeterministic(t *testing.T) {
	mh := randomFermionic(5, 14, 9)
	for name, build := range map[string]func() int{
		"Build":      func() int { return run(t, Build, mh, Options{}).PredictedWeight },
		"BuildUnopt": func() int { return run(t, BuildUnopt, mh, Options{}).PredictedWeight },
		"Beam4":      func() int { return run(t, Beam, mh, Options{Width: 4}).PredictedWeight },
		"Exhaustive": func() int { return run(t, Exhaustive, mh, Options{MaxVisits: 10000}).PredictedWeight },
		"TieSupport": func() int { return run(t, Build, mh, Options{TieBreak: TieSupport}).PredictedWeight },
	} {
		a, b := build(), build()
		if a != b {
			t.Errorf("%s nondeterministic: %d vs %d", name, a, b)
		}
	}
}

func TestSingleModeSystems(t *testing.T) {
	// Degenerate n=1: one merge of the three leaves; everything must hold.
	mh := randomFermionic(1, 3, 2)
	for _, res := range []*Result{run(t, Build, mh, Options{}), run(t, BuildUnopt, mh, Options{}), run(t, Beam, mh, Options{Width: 2})} {
		if err := res.Mapping.Verify(); err != nil {
			t.Fatal(err)
		}
		if res.Tree.N != 1 {
			t.Fatal("wrong tree size")
		}
	}
	ex := run(t, Exhaustive, mh, Options{MaxVisits: 0})
	if !ex.Optimal {
		t.Fatal("n=1 exhaustive must complete")
	}
}

func TestEmptyHamiltonian(t *testing.T) {
	// A Hamiltonian with no terms still yields a valid mapping (any tree
	// works; weight 0).
	mh := randomFermionic(3, 0, 1)
	res := run(t, Build, mh, Options{})
	if res.PredictedWeight != 0 {
		t.Errorf("weight = %d, want 0", res.PredictedWeight)
	}
	if err := res.Mapping.Verify(); err != nil {
		t.Fatal(err)
	}
}
