package core

import (
	"testing"
)

func TestBeamWidth1MatchesGreedy(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		mh := randomFermionic(5, 12, seed)
		g := run(t, Build, mh, Options{})
		b := run(t, Beam, mh, Options{Width: 1})
		if g.PredictedWeight != b.PredictedWeight {
			t.Errorf("seed %d: beam(1) %d != greedy %d", seed, b.PredictedWeight, g.PredictedWeight)
		}
	}
}

func TestBeamNeverWorseThanGreedy(t *testing.T) {
	// Beam search is not monotone in width, but the incumbent rule
	// guarantees it never loses to the greedy construction.
	for seed := int64(1); seed <= 6; seed++ {
		mh := randomFermionic(5, 15, seed)
		w1 := run(t, Beam, mh, Options{Width: 1}).PredictedWeight
		for _, width := range []int{2, 4, 8} {
			if w := run(t, Beam, mh, Options{Width: width}).PredictedWeight; w > w1 {
				t.Errorf("seed %d: beam(%d) %d worse than greedy %d", seed, width, w, w1)
			}
		}
	}
}

func TestBeamPreservesVacuumAndVerifies(t *testing.T) {
	mh := randomFermionic(6, 18, 3)
	res := run(t, Beam, mh, Options{Width: 6})
	if err := res.Mapping.Verify(); err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.VacuumPreserved() {
		t.Error("beam mapping lost vacuum preservation")
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if actual := res.Mapping.Apply(mh).Weight(); actual != res.PredictedWeight {
		t.Errorf("beam predicted %d, actual %d", res.PredictedWeight, actual)
	}
}

func TestBeamFindsExhaustiveOptimumSometimes(t *testing.T) {
	// On the motivation example a modest beam should reach the
	// vacuum-preserving optimum found by exhaustive search restricted to
	// the same candidate rule — at minimum it must beat or match greedy.
	mh := motivation()
	greedy := run(t, Build, mh, Options{}).PredictedWeight
	beam := run(t, Beam, mh, Options{Width: 16}).PredictedWeight
	if beam > greedy {
		t.Errorf("beam %d worse than greedy %d", beam, greedy)
	}
}

func TestBeamEq3(t *testing.T) {
	res := run(t, Beam, eq3(), Options{Width: 4})
	if actual := res.Mapping.Apply(eq3()).Weight(); actual != res.PredictedWeight {
		t.Errorf("predicted %d != actual %d", res.PredictedWeight, actual)
	}
}
