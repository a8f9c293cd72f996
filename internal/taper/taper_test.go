package taper

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/linalg"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/pauli"
)

func TestFindSymmetriesCommute(t *testing.T) {
	hq := mapping.JordanWigner(4).ApplyFermionic(models.H2STO3G())
	taus := FindSymmetries(hq)
	if len(taus) == 0 {
		t.Fatal("H2/JW should have Z2 symmetries (spin parities)")
	}
	for _, tau := range taus {
		if tau.IsIdentity() {
			t.Fatal("identity returned as symmetry")
		}
		for _, term := range hq.Terms() {
			if !tau.Commutes(term.S) {
				t.Fatalf("symmetry %s does not commute with term %s", tau, term.S)
			}
		}
		// Pairwise commuting.
		for _, o := range taus {
			if !tau.Commutes(o) {
				t.Fatalf("symmetries %s and %s anticommute", tau, o)
			}
		}
	}
}

func TestRotatePreservesSpectrum(t *testing.T) {
	hq := mapping.JordanWigner(3).ApplyFermionic(fermion.Number(3, 1))
	// Use a simple diagonal Hamiltonian with symmetry Z on qubit 0.
	h := pauli.NewHamiltonian(3)
	h.Add(1, pauli.MustParse("ZZI"))
	h.Add(0.5, pauli.MustParse("IZZ"))
	tau := pauli.MustParse("ZII")
	rot := rotate(h, tau, 2)
	evA := linalg.EigenvaluesHermitian(linalg.Matrix(h))
	evB := linalg.EigenvaluesHermitian(linalg.Matrix(rot))
	if !linalg.SpectraClose(evA, evB, 1e-8) {
		t.Errorf("rotation changed spectrum:\n%v\n%v", evA, evB)
	}
	_ = hq
}

func TestTaperH2PreservesGroundEnergy(t *testing.T) {
	hq := mapping.JordanWigner(4).ApplyFermionic(models.H2STO3G())
	full := linalg.GroundEnergy(hq)
	res, e, err := GroundSector(context.Background(), hq, linalg.GroundEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced.N() >= hq.N() {
		t.Fatalf("tapering removed no qubits: %d → %d", hq.N(), res.Reduced.N())
	}
	if math.Abs(e-full) > 1e-7 {
		t.Fatalf("tapered ground energy %v != full %v", e, full)
	}
	t.Logf("H2: %d qubits → %d qubits, E0 = %.6f", hq.N(), res.Reduced.N(), e)
}

func TestTaperSpectrumIsSubset(t *testing.T) {
	// Every eigenvalue of the tapered Hamiltonian must be an eigenvalue of
	// the full one (within tolerance).
	hq := mapping.BravyiKitaev(4).ApplyFermionic(models.H2STO3G())
	taus := FindSymmetries(hq)
	if len(taus) == 0 {
		t.Skip("no symmetries under BK for this instance")
	}
	sectors := make([]int, len(taus))
	for i := range sectors {
		sectors[i] = 1
	}
	res, err := TaperSector(hq, taus, sectors)
	if err != nil {
		t.Fatal(err)
	}
	evFull := linalg.EigenvaluesHermitian(linalg.Matrix(hq))
	evRed := linalg.EigenvaluesHermitian(linalg.Matrix(res.Reduced))
	for _, e := range evRed {
		found := false
		for _, f := range evFull {
			if math.Abs(e-f) < 1e-6 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("tapered eigenvalue %v not in full spectrum", e)
		}
	}
}

func TestTaperHubbardWithHATT(t *testing.T) {
	// Tapering composes with HATT: the HATT-mapped 1×2 Hubbard model has
	// spin-parity symmetries; tapering must preserve the ground energy.
	mh := models.FermiHubbard(1, 2, 1, 4).Majorana(1e-12)
	hatt, err := core.Build(context.Background(), mh, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hq := hatt.Mapping.Apply(mh)
	full := linalg.GroundEnergy(hq)
	res, e, err := GroundSector(context.Background(), hq, linalg.GroundEnergy)
	if err != nil {
		t.Skipf("no tapering available: %v", err)
	}
	if math.Abs(e-full) > 1e-7 {
		t.Fatalf("tapered %v != full %v", e, full)
	}
	if res.Reduced.N() >= hq.N() {
		t.Fatal("no qubits removed")
	}
}

func TestTaperSectorValidation(t *testing.T) {
	h := pauli.NewHamiltonian(2)
	h.Add(1, pauli.MustParse("ZZ"))
	taus := FindSymmetries(h)
	if len(taus) == 0 {
		t.Fatal("ZZ has symmetries")
	}
	if _, err := TaperSector(h, taus, []int{}); err == nil {
		t.Error("sector count mismatch accepted")
	}
}

func TestGF2KernelBasics(t *testing.T) {
	// Matrix [1 1 0; 0 1 1] over GF(2): kernel = span{(1,1,1)}.
	rows := [][]uint64{{0b011}, {0b110}}
	k := gf2Kernel(rows, 3)
	if len(k) != 1 {
		t.Fatalf("kernel dim = %d, want 1", len(k))
	}
	if k[0][0] != 0b111 {
		t.Fatalf("kernel = %b, want 111", k[0][0])
	}
}
