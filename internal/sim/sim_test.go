package sim

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/pauli"
)

// hattMapping builds the HATT mapping of mh.
func hattMapping(t *testing.T, mh *fermion.MajoranaHamiltonian) *mapping.Mapping {
	t.Helper()
	res, err := core.Build(context.Background(), mh, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Mapping
}

func TestHadamardSuperposition(t *testing.T) {
	s := NewState(1)
	s.ApplyGate(circuit.H(0))
	w := complex(1/math.Sqrt2, 0)
	if cmplx.Abs(s.Amp[0]-w) > 1e-12 || cmplx.Abs(s.Amp[1]-w) > 1e-12 {
		t.Errorf("H|0⟩ = %v", s.Amp)
	}
}

func TestBellState(t *testing.T) {
	s := NewState(2)
	s.ApplyGate(circuit.H(0))
	s.ApplyGate(circuit.CNOT(0, 1))
	w := 1 / math.Sqrt2
	if cmplx.Abs(s.Amp[0]-complex(w, 0)) > 1e-12 || cmplx.Abs(s.Amp[3]-complex(w, 0)) > 1e-12 {
		t.Fatalf("Bell amplitudes = %v", s.Amp)
	}
	// Correlations: ⟨XX⟩ = ⟨ZZ⟩ = 1, ⟨ZI⟩ = 0.
	if e := real(s.ExpectationString(pauli.MustParse("XX"))); math.Abs(e-1) > 1e-12 {
		t.Errorf("⟨XX⟩ = %v", e)
	}
	if e := real(s.ExpectationString(pauli.MustParse("ZZ"))); math.Abs(e-1) > 1e-12 {
		t.Errorf("⟨ZZ⟩ = %v", e)
	}
	if e := real(s.ExpectationString(pauli.MustParse("ZI"))); math.Abs(e) > 1e-12 {
		t.Errorf("⟨ZI⟩ = %v", e)
	}
}

func TestApplyPauliAction(t *testing.T) {
	s := NewState(1)
	s.ApplyPauli(pauli.MustParse("X"))
	if cmplx.Abs(s.Amp[1]-1) > 1e-12 {
		t.Errorf("X|0⟩ = %v", s.Amp)
	}
	s2 := NewState(1)
	s2.ApplyPauli(pauli.MustParse("Y"))
	if cmplx.Abs(s2.Amp[1]-complex(0, 1)) > 1e-12 {
		t.Errorf("Y|0⟩ = %v, want i|1⟩", s2.Amp)
	}
	s3 := BasisState(1, 1)
	s3.ApplyPauli(pauli.MustParse("Z"))
	if cmplx.Abs(s3.Amp[1]+1) > 1e-12 {
		t.Errorf("Z|1⟩ = %v, want -|1⟩", s3.Amp)
	}
}

func TestNormPreservation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	h := pauli.NewHamiltonian(4)
	h.Add(0.5, pauli.MustParse("XYZI"))
	h.Add(-0.3, pauli.MustParse("ZZXX"))
	h.Add(0.2, pauli.MustParse("IIYX"))
	c := circuit.Compile(h, circuit.OrderLexicographic)
	s := NewState(4)
	s.ApplyCircuit(c)
	if math.Abs(s.Norm()-1) > 1e-10 {
		t.Errorf("norm = %v", s.Norm())
	}
	// Trajectories also preserve norm (Pauli errors are unitary).
	st := NewState(4)
	st.Trajectory(c, NoiseModel{P1: 0.5, P2: 0.5}, r)
	if math.Abs(st.Norm()-1) > 1e-10 {
		t.Errorf("noisy norm = %v", st.Norm())
	}
}

func TestTrajectoryZeroNoiseIsExact(t *testing.T) {
	h := pauli.NewHamiltonian(3)
	h.Add(0.4, pauli.MustParse("XXZ"))
	h.Add(0.1, pauli.MustParse("ZYI"))
	c := circuit.Compile(h, circuit.OrderNatural)
	exact := NewState(3)
	exact.ApplyCircuit(c)
	noisy := NewState(3)
	noisy.Trajectory(c, NoiseModel{}, rand.New(rand.NewSource(2)))
	if f := Fidelity(exact, noisy); math.Abs(f-1) > 1e-12 {
		t.Errorf("zero-noise fidelity = %v", f)
	}
}

func TestExpectationMatchesBasisFormula(t *testing.T) {
	h := pauli.NewHamiltonian(3)
	h.Add(0.7, pauli.MustParse("ZIZ"))
	h.Add(0.2, pauli.MustParse("IZI"))
	h.Add(1.1, pauli.Identity(3))
	for mask := uint64(0); mask < 8; mask++ {
		s := BasisState(3, mask)
		want := real(h.ExpectationOnBasis(mask))
		if got := s.Expectation(h); math.Abs(got-want) > 1e-10 {
			t.Errorf("mask %b: %v vs %v", mask, got, want)
		}
	}
}

func TestVacuumPreservationEndToEnd(t *testing.T) {
	// A HATT-mapped number operator must annihilate |0…0⟩ exactly: the
	// expectation of every n_j on the all-zero state is 0.
	hf := fermion.NewHamiltonian(4)
	hf.AddHermitian(0.8, fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 2})
	hf.Add(1.5, fermion.Op{Mode: 1, Dagger: true}, fermion.Op{Mode: 1})
	hf.Add(0.6,
		fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 3, Dagger: true},
		fermion.Op{Mode: 0}, fermion.Op{Mode: 3})
	m := hattMapping(t, hf.Majorana(1e-14))
	for j := 0; j < 4; j++ {
		hq := m.ApplyFermionic(fermion.Number(4, j))
		s := NewState(m.Qubits())
		if e := s.Expectation(hq); math.Abs(e) > 1e-10 {
			t.Errorf("⟨0|n_%d|0⟩ = %v under HATT", j, e)
		}
	}
}

func TestEstimateZeroNoiseUnbiased(t *testing.T) {
	h := pauli.NewHamiltonian(2)
	h.Add(0.5, pauli.MustParse("ZI"))
	h.Add(0.25, pauli.MustParse("IZ"))
	h.Add(-0.75, pauli.Identity(2))
	c := circuit.New(2)
	c.Append(circuit.X(0)) // |01⟩: E = 0.5·1 + 0.25·(−1) − 0.75 = −0.5
	res := Estimate(c, h, NoiseModel{}, 4000, 7)
	if math.Abs(res.Ideal-(-0.5)) > 1e-10 {
		t.Fatalf("ideal = %v, want -0.5", res.Ideal)
	}
	if res.Bias > 0.05 {
		t.Errorf("zero-noise bias = %v too large", res.Bias)
	}
}

func TestEstimateNoiseIncreasesBias(t *testing.T) {
	// Deep circuit + diagonal Hamiltonian: depolarizing noise pulls the
	// estimate toward the maximally mixed value.
	h := pauli.NewHamiltonian(2)
	h.Add(1, pauli.MustParse("ZZ"))
	c := circuit.New(2)
	for i := 0; i < 30; i++ {
		c.Append(circuit.CNOT(0, 1))
	}
	clean := Estimate(c, h, NoiseModel{}, 2000, 3)
	noisy := Estimate(c, h, NoiseModel{P1: 0.01, P2: 0.05}, 2000, 3)
	if noisy.Bias <= clean.Bias {
		t.Errorf("noise did not increase bias: %v vs %v", noisy.Bias, clean.Bias)
	}
	if noisy.Variance <= 0 {
		t.Error("noisy variance should be positive")
	}
}

func TestReadoutErrorFlipsOutcomes(t *testing.T) {
	// With readout error 0.5 on a single measured qubit, outcomes are coin
	// flips and the mean collapses toward 0.
	h := pauli.NewHamiltonian(1)
	h.Add(1, pauli.MustParse("Z"))
	c := circuit.New(1)
	c.Append(circuit.H(0), circuit.H(0)) // identity-ish, keeps |0⟩: ⟨Z⟩ = 1
	res := Estimate(c, h, NoiseModel{Readout: 0.5}, 4000, 5)
	if math.Abs(res.Mean) > 0.06 {
		t.Errorf("fully randomized readout mean = %v, want ≈ 0", res.Mean)
	}
}

func TestIonQProfile(t *testing.T) {
	nm := IonQForte1()
	if nm.P2 < nm.P1 {
		t.Error("two-qubit error should dominate")
	}
	if math.Abs(nm.P2-0.0101) > 1e-10 {
		t.Errorf("P2 = %v", nm.P2)
	}
}

func TestTrotterEvolutionAgainstExactSmallAngle(t *testing.T) {
	// One Trotter step at small t approximates exp(−iHt): fidelity with
	// the exact evolution should be ≈ 1 − O(t⁴) for a 2-term H.
	h := pauli.NewHamiltonian(2)
	h.Add(0.3, pauli.MustParse("XZ"))
	h.Add(0.4, pauli.MustParse("ZX"))
	tEvo := 0.05
	c := circuit.SynthesizeTrotter(h, tEvo, 1, circuit.OrderNatural)
	trot := NewState(2)
	trot.ApplyGate(circuit.H(0))
	trot.ApplyGate(circuit.CNOT(0, 1))
	trot.ApplyCircuit(c)
	// Exact evolution via series on the same initial Bell state.
	exact := NewState(2)
	exact.ApplyGate(circuit.H(0))
	exact.ApplyGate(circuit.CNOT(0, 1))
	applyExpSeries(exact, h, tEvo)
	if f := Fidelity(trot, exact); f < 1-1e-5 {
		t.Errorf("Trotter fidelity = %v", f)
	}
}

// applyExpSeries applies exp(−iHt) by Taylor series (converges for small
// ‖Ht‖).
func applyExpSeries(s *State, h *pauli.Hamiltonian, t float64) {
	applyH := func(in []complex128) []complex128 {
		out := make([]complex128, len(in))
		for _, term := range h.Terms() {
			tmp := &State{N: s.N, Amp: append([]complex128{}, in...)}
			tmp.ApplyPauli(term.S)
			for i := range out {
				out[i] += term.Coeff * tmp.Amp[i]
			}
		}
		return out
	}
	result := append([]complex128{}, s.Amp...)
	cur := append([]complex128{}, s.Amp...)
	for k := 1; k <= 25; k++ {
		cur = applyH(cur)
		f := complex(0, -t) / complex(float64(k), 0)
		for i := range cur {
			cur[i] *= f
			result[i] += cur[i]
		}
	}
	s.Amp = result
}

func TestCloneIndependence(t *testing.T) {
	s := NewState(2)
	c := s.Clone()
	c.ApplyGate(circuit.X(0))
	if cmplx.Abs(s.Amp[0]-1) > 1e-12 {
		t.Error("Clone shares amplitude storage")
	}
}

func TestMappingsAgreeOnNoiselessEnergy(t *testing.T) {
	// The same fermionic Hamiltonian compiled through JW and HATT must
	// give identical noiseless Trotter energies when each starts from its
	// own vacuum (both vacuum-preserving ⇒ both start at |0…0⟩).
	hf := fermion.NewHamiltonian(3)
	hf.AddHermitian(0.7, fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 1})
	hf.Add(1.1, fermion.Op{Mode: 2, Dagger: true}, fermion.Op{Mode: 2})
	mh := hf.Majorana(1e-14)
	var energies []float64
	for _, m := range []*mapping.Mapping{mapping.JordanWigner(3), hattMapping(t, mh)} {
		hq := m.Apply(mh)
		c := circuit.Compile(hq, circuit.OrderLexicographic)
		s := NewState(3)
		s.ApplyCircuit(c)
		energies = append(energies, s.Expectation(hq))
	}
	if math.Abs(energies[0]-energies[1]) > 1e-8 {
		t.Errorf("JW %v vs HATT %v", energies[0], energies[1])
	}
}
