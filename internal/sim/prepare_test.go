package sim

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/mapping"
	"repro/internal/models"
)

func TestPrepareOccupiedMatchesFockMask(t *testing.T) {
	// For vacuum-preserving mappings the operator-applied Fock state must
	// be exactly the basis state FockMask predicts (up to global phase).
	mh := models.H2STO3G().Majorana(1e-12)
	maps := []*mapping.Mapping{
		mapping.JordanWigner(4),
		mapping.BravyiKitaev(4),
		mapping.Parity(4),
		mapping.BalancedTernaryTree(4),
		hattMapping(t, mh),
	}
	occs := [][]int{{0}, {0, 1}, {1, 3}, {0, 1, 2, 3}}
	for _, m := range maps {
		for _, occ := range occs {
			st, err := PrepareOccupied(m, occ)
			if err != nil {
				t.Fatalf("%s occ %v: %v", m.Name, occ, err)
			}
			mask, err := m.FockMask(occ)
			if err != nil {
				t.Fatalf("%s occ %v: FockMask: %v", m.Name, occ, err)
			}
			if a := cmplx.Abs(st.Amp[mask]); math.Abs(a-1) > 1e-9 {
				t.Errorf("%s occ %v: |amp[mask]| = %v, want 1", m.Name, occ, a)
			}
		}
	}
}

func TestPrepareOccupiedParticleNumber(t *testing.T) {
	// The prepared state is an eigenstate of every occupation operator
	// with the right eigenvalue.
	m := mapping.BravyiKitaev(5)
	occ := []int{0, 2, 4}
	st, err := PrepareOccupied(m, occ)
	if err != nil {
		t.Fatal(err)
	}
	inOcc := map[int]bool{0: true, 2: true, 4: true}
	for j := 0; j < 5; j++ {
		e := st.Expectation(m.OccupationOperator(j))
		want := 0.0
		if inOcc[j] {
			want = 1.0
		}
		if math.Abs(e-want) > 1e-9 {
			t.Errorf("⟨n_%d⟩ = %v, want %v", j, e, want)
		}
	}
}

func TestPrepareOccupiedRepeatedModeFails(t *testing.T) {
	m := mapping.JordanWigner(3)
	if _, err := PrepareOccupied(m, []int{1, 1}); err == nil {
		t.Error("double occupation should vanish and error")
	}
}
