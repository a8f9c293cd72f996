package core

import (
	"testing"

	"repro/internal/fermion"
	"repro/internal/models"
)

func TestTieBreakPoliciesStayValid(t *testing.T) {
	mh := models.FermiHubbard(2, 3, 1, 4).Majorana(1e-12)
	base := run(t, Build, mh, Options{}).PredictedWeight
	for _, tb := range []TieBreak{TieFirst, TieDepth, TieSupport} {
		res := run(t, Build, mh, Options{TieBreak: tb})
		if err := res.Mapping.Verify(); err != nil {
			t.Fatalf("tiebreak %d: %v", tb, err)
		}
		if !res.Mapping.VacuumPreserved() {
			t.Fatalf("tiebreak %d: lost vacuum preservation", tb)
		}
		if actual := res.Mapping.Apply(mh).Weight(); actual != res.PredictedWeight {
			t.Fatalf("tiebreak %d: predicted %d, actual %d", tb, res.PredictedWeight, actual)
		}
		// Ties only: the primary objective (total weight) must not regress
		// dramatically — same greedy trajectory class. Allow equality or
		// small wobble since different ties change the future landscape.
		if res.PredictedWeight > base*3/2 {
			t.Errorf("tiebreak %d: weight %d blew up vs %d", tb, res.PredictedWeight, base)
		}
	}
}

func TestTieDepthReducesTreeDepth(t *testing.T) {
	// On the unconstrained all-Majorana Hamiltonian the weight landscape
	// is full of ties; the depth tie-break should never yield a deeper
	// tree than the first-found policy.
	n := 8
	mh := &fermion.MajoranaHamiltonian{Modes: n}
	for i := 0; i < 2*n; i++ {
		mh.Terms = append(mh.Terms, fermion.MajoranaTerm{Coeff: 1, Indices: []int{i}})
	}
	first := run(t, Build, mh, Options{TieBreak: TieFirst})
	depth := run(t, Build, mh, Options{TieBreak: TieDepth})
	if depth.Tree.Depth() > first.Tree.Depth() {
		t.Errorf("TieDepth gave deeper tree: %d vs %d", depth.Tree.Depth(), first.Tree.Depth())
	}
}
