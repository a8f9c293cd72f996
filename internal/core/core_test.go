package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/fermion"
	"repro/internal/linalg"
	"repro/internal/mapping"
)

// eq3 is the paper's running example (Equation 3):
// HF = a†0 a0 + 2 a†1 a†2 a1 a2.
func eq3() *fermion.MajoranaHamiltonian {
	h := fermion.NewHamiltonian(3)
	h.Add(1, fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 0})
	h.Add(2, fermion.Op{Mode: 1, Dagger: true}, fermion.Op{Mode: 2, Dagger: true},
		fermion.Op{Mode: 1}, fermion.Op{Mode: 2})
	return h.Majorana(1e-14)
}

// motivation is the Fig. 4 toy Hamiltonian HF = c1·M0M5 + c2·M1M3, built
// from a fermionic form that expands to exactly those monomials is awkward;
// tests use the index sets directly through a crafted MajoranaHamiltonian.
func motivation() *fermion.MajoranaHamiltonian {
	return &fermion.MajoranaHamiltonian{
		Modes: 3,
		Terms: []fermion.MajoranaTerm{
			{Coeff: complex(0, 0.3), Indices: []int{0, 5}},
			{Coeff: complex(0, 0.7), Indices: []int{1, 3}},
		},
	}
}

// run calls a search with a background context and fails the test on
// error.
func run[R any](t testing.TB, search func(context.Context, *fermion.MajoranaHamiltonian, Options) (R, error), mh *fermion.MajoranaHamiltonian, opts Options) R {
	t.Helper()
	r, err := search(context.Background(), mh, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// randomFermionic builds a seeded random Hermitian fermionic Hamiltonian.
func randomFermionic(n int, terms int, seed int64) *fermion.MajoranaHamiltonian {
	r := rand.New(rand.NewSource(seed))
	h := fermion.NewHamiltonian(n)
	for k := 0; k < terms; k++ {
		p, q := r.Intn(n), r.Intn(n)
		switch r.Intn(3) {
		case 0:
			h.AddHermitian(complex(r.NormFloat64(), 0),
				fermion.Op{Mode: p, Dagger: true}, fermion.Op{Mode: q})
		case 1:
			h.Add(complex(r.Float64()+0.1, 0),
				fermion.Op{Mode: p, Dagger: true}, fermion.Op{Mode: p})
		default:
			s, t := r.Intn(n), r.Intn(n)
			h.AddHermitian(complex(r.NormFloat64(), 0),
				fermion.Op{Mode: p, Dagger: true}, fermion.Op{Mode: q, Dagger: true},
				fermion.Op{Mode: s}, fermion.Op{Mode: t})
		}
	}
	return h.Majorana(1e-14)
}

func TestBuildEq3FirstMergeMatchesPaper(t *testing.T) {
	// The paper's first step picks O0, O1, O6 with settled weight 1.
	res := run(t, Build, eq3(), Options{})
	b := res.Tree
	// Qubit-0 internal node is ID 2N+1 = 7; its children must be leaves
	// 0 (X), 1 (Y), 6 (Z).
	var q0 = b.Leaves[0].Parent
	if q0.Qubit != 0 {
		t.Fatalf("leaf 0's parent is qubit %d, want 0", q0.Qubit)
	}
	if q0.Child[0].ID != 0 || q0.Child[1].ID != 1 || q0.Child[2].ID != 6 {
		t.Fatalf("first merge = (%d,%d,%d), want (0,1,6)",
			q0.Child[0].ID, q0.Child[1].ID, q0.Child[2].ID)
	}
}

func TestPredictedWeightMatchesActual(t *testing.T) {
	cases := []*fermion.MajoranaHamiltonian{
		eq3(),
		motivation(),
		randomFermionic(4, 8, 1),
		randomFermionic(5, 12, 2),
		randomFermionic(6, 20, 3),
	}
	for ci, mh := range cases {
		for _, res := range []*Result{run(t, Build, mh, Options{}), run(t, BuildUnopt, mh, Options{}), BuildUncached(mh)} {
			actual := res.Mapping.Apply(mh).Weight()
			if res.PredictedWeight != actual {
				t.Errorf("case %d %s: predicted %d, actual %d",
					ci, res.Mapping.Name, res.PredictedWeight, actual)
			}
		}
	}
}

func TestBuildVerifiesAndPreservesVacuum(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		mh := randomFermionic(3+int(seed), 10, seed)
		res := run(t, Build, mh, Options{})
		if err := res.Mapping.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Mapping.VacuumPreserved() {
			t.Fatalf("seed %d: Build mapping not vacuum preserving", seed)
		}
		if err := res.Tree.Validate(); err != nil {
			t.Fatalf("seed %d: tree invalid: %v", seed, err)
		}
	}
}

func TestBuildUnoptVerifies(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		mh := randomFermionic(4, 10, seed)
		res := run(t, BuildUnopt, mh, Options{})
		if err := res.Mapping.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Tree.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestBuildUncachedIdenticalToBuild(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		mh := randomFermionic(5, 15, seed)
		a := run(t, Build, mh, Options{})
		b := BuildUncached(mh)
		if a.PredictedWeight != b.PredictedWeight {
			t.Fatalf("seed %d: weights differ %d vs %d", seed, a.PredictedWeight, b.PredictedWeight)
		}
		for j := range a.Mapping.Majoranas {
			if !a.Mapping.Majoranas[j].Equal(b.Mapping.Majoranas[j]) {
				t.Fatalf("seed %d: M%d differs: %s vs %s", seed, j,
					a.Mapping.Majoranas[j], b.Mapping.Majoranas[j])
			}
		}
	}
}

func TestMotivationExampleBeatsBalanced(t *testing.T) {
	// Fig. 4: balanced tree gives weight 6; an adaptive tree achieves ≤ 3.
	mh := motivation()
	btt := mapping.BalancedTernaryTree(3)
	bttW := btt.Apply(mh).Weight()
	res := run(t, BuildUnopt, mh, Options{})
	if res.PredictedWeight > 3 {
		t.Errorf("HATT-unopt weight %d, want ≤ 3 (paper's unbalanced tree)", res.PredictedWeight)
	}
	if res.PredictedWeight >= bttW {
		t.Errorf("HATT-unopt weight %d not better than BTT %d", res.PredictedWeight, bttW)
	}
	// The vacuum-preserving variant may pay a small penalty but must stay
	// at or below the balanced tree.
	resV := run(t, Build, mh, Options{})
	if resV.PredictedWeight > bttW {
		t.Errorf("HATT weight %d worse than BTT %d", resV.PredictedWeight, bttW)
	}
}

func TestEvaluateTreeConsistency(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		mh := randomFermionic(5, 12, seed)
		res := run(t, Build, mh, Options{})
		if w := EvaluateTree(mh, res.Tree); w != res.PredictedWeight {
			t.Errorf("seed %d: EvaluateTree %d != predicted %d", seed, w, res.PredictedWeight)
		}
	}
}

func TestExhaustiveOptimalOnSmallCases(t *testing.T) {
	for _, mh := range []*fermion.MajoranaHamiltonian{eq3(), motivation(), randomFermionic(3, 6, 7)} {
		ex := run(t, Exhaustive, mh, Options{MaxVisits: 0})
		if !ex.Optimal {
			t.Fatal("unbudgeted exhaustive search should complete")
		}
		if err := ex.Mapping.Verify(); err != nil {
			t.Fatal(err)
		}
		// Optimal must be at least as good as both greedy variants.
		if g := run(t, Build, mh, Options{}); ex.PredictedWeight > g.PredictedWeight {
			t.Errorf("exhaustive %d worse than greedy %d", ex.PredictedWeight, g.PredictedWeight)
		}
		if g := run(t, BuildUnopt, mh, Options{}); ex.PredictedWeight > g.PredictedWeight {
			t.Errorf("exhaustive %d worse than greedy-unopt %d", ex.PredictedWeight, g.PredictedWeight)
		}
		if actual := ex.Mapping.Apply(mh).Weight(); actual != ex.PredictedWeight {
			t.Errorf("exhaustive predicted %d, actual %d", ex.PredictedWeight, actual)
		}
	}
}

func TestExhaustiveMotivationOptimum(t *testing.T) {
	// For HF = c1·M0M5 + c2·M1M3 the optimum is weight 2 (each term can
	// settle to a single-qubit Pauli).
	ex := run(t, Exhaustive, motivation(), Options{MaxVisits: 0})
	if ex.PredictedWeight != 2 {
		t.Errorf("optimum = %d, want 2", ex.PredictedWeight)
	}
}

func TestExhaustiveBudgetFallsBackToGreedy(t *testing.T) {
	mh := randomFermionic(4, 10, 11)
	ex := run(t, Exhaustive, mh, Options{MaxVisits: 5}) // tiny budget
	if ex.Optimal {
		t.Error("tiny budget should not prove optimality")
	}
	greedy := run(t, BuildUnopt, mh, Options{})
	if ex.PredictedWeight > greedy.PredictedWeight {
		t.Errorf("budgeted exhaustive %d worse than its greedy seed %d",
			ex.PredictedWeight, greedy.PredictedWeight)
	}
	if err := ex.Mapping.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealImprovesOrMatchesGreedy(t *testing.T) {
	mh := randomFermionic(5, 15, 4)
	greedy := run(t, BuildUnopt, mh, Options{})
	an := run(t, Anneal, mh, Options{Iters: 3000, Seed: 3})
	if an.PredictedWeight > greedy.PredictedWeight {
		t.Errorf("anneal %d worse than greedy start %d", an.PredictedWeight, greedy.PredictedWeight)
	}
	if err := an.Mapping.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := an.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if actual := an.Mapping.Apply(mh).Weight(); actual != an.PredictedWeight {
		t.Errorf("anneal predicted %d, actual %d", an.PredictedWeight, actual)
	}
}

func TestSpectrumInvarianceHATTvsJW(t *testing.T) {
	h := fermion.NewHamiltonian(3)
	h.AddHermitian(1.0, fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 1})
	h.AddHermitian(-0.4, fermion.Op{Mode: 1, Dagger: true}, fermion.Op{Mode: 2})
	h.Add(0.9, fermion.Op{Mode: 2, Dagger: true}, fermion.Op{Mode: 2})
	h.Add(1.7,
		fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 2, Dagger: true},
		fermion.Op{Mode: 0}, fermion.Op{Mode: 2})
	mh := h.Majorana(1e-14)
	jw := mapping.JordanWigner(3).Apply(mh)
	hatt := run(t, Build, mh, Options{}).Mapping.Apply(mh)
	evJW := linalg.EigenvaluesHermitian(linalg.Matrix(jw))
	evHA := linalg.EigenvaluesHermitian(linalg.Matrix(hatt))
	if !linalg.SpectraClose(evJW, evHA, 1e-7) {
		t.Errorf("spectra differ:\nJW   %v\nHATT %v", evJW, evHA)
	}
}

func TestHATTBeatsOrMatchesBaselinesOnRandom(t *testing.T) {
	// HATT is Hamiltonian-aware: across seeds it should never lose to the
	// best baseline by more than a whisker, and should usually win. Assert
	// the weaker sound property: HATT ≤ max(JW, BK, BTT) for every seed
	// and HATT < best baseline on at least one seed.
	wins := false
	for seed := int64(1); seed <= 8; seed++ {
		n := 4 + int(seed)%3
		mh := randomFermionic(n, 14, seed)
		hatt := run(t, Build, mh, Options{}).PredictedWeight
		jw := mapping.JordanWigner(n).Apply(mh).Weight()
		bk := mapping.BravyiKitaev(n).Apply(mh).Weight()
		btt := mapping.BalancedTernaryTree(n).Apply(mh).Weight()
		worst := jw
		if bk > worst {
			worst = bk
		}
		if btt > worst {
			worst = btt
		}
		best := jw
		if bk < best {
			best = bk
		}
		if btt < best {
			best = btt
		}
		if hatt > worst {
			t.Errorf("seed %d: HATT %d worse than worst baseline %d", seed, hatt, worst)
		}
		if hatt < best {
			wins = true
		}
	}
	if !wins {
		t.Error("HATT never beat the best baseline on any seed")
	}
}

func TestLeafBitsShape(t *testing.T) {
	mh := eq3()
	p := newProblem(mh)
	if p.n != 3 || p.nTerms != 4 {
		t.Fatalf("problem shape n=%d terms=%d", p.n, p.nTerms)
	}
	// Leaf 6 participates in no term.
	for _, w := range p.leafBits[6] {
		if w != 0 {
			t.Fatal("leaf 2N should be term-free")
		}
	}
}

func TestSettledWeightTruthTable(t *testing.T) {
	// Single term; enumerate membership patterns.
	mk := func(x, y, z bool) (termBits, termBits, termBits) {
		bx, by, bz := newTermBits(1), newTermBits(1), newTermBits(1)
		if x {
			bx.set(0)
		}
		if y {
			by.set(0)
		}
		if z {
			bz.set(0)
		}
		return bx, by, bz
	}
	cases := []struct {
		x, y, z bool
		want    int
	}{
		{false, false, false, 0}, // k=0 → I
		{true, false, false, 1},  // k=1 → single Pauli
		{true, true, false, 1},   // k=2 → product of two ≠ I
		{true, true, true, 0},    // k=3 → X·Y·Z ∝ I
		{false, true, true, 1},
		{false, false, true, 1},
	}
	for _, c := range cases {
		bx, by, bz := mk(c.x, c.y, c.z)
		if got := settledWeight(bx, by, bz); got != c.want {
			t.Errorf("settledWeight(%v,%v,%v) = %d, want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}
