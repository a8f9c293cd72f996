// Package sim is a dense state-vector quantum simulator with the
// depolarizing-noise and shot-sampling machinery used for the paper's noisy
// simulations (Fig. 10) and the IonQ-profile real-system stand-in
// (Fig. 11). It executes the {CNOT, U3} circuits produced by
// internal/circuit on up to ~20 qubits.
package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/mapping"
	"repro/internal/pauli"
)

// State is a normalized pure state on N qubits. Amplitude index b has qubit
// q occupied iff bit q of b is set.
type State struct {
	N   int
	Amp []complex128
}

// NewState returns |0…0⟩ on n qubits.
func NewState(n int) *State {
	if n < 0 || n > 28 {
		panic(fmt.Sprintf("sim: unsupported qubit count %d", n))
	}
	s := &State{N: n, Amp: make([]complex128, 1<<uint(n))}
	s.Amp[0] = 1
	return s
}

// BasisState returns |mask⟩.
func BasisState(n int, mask uint64) *State {
	s := NewState(n)
	s.Amp[0] = 0
	s.Amp[mask] = 1
	return s
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{N: s.N, Amp: make([]complex128, len(s.Amp))}
	copy(c.Amp, s.Amp)
	return c
}

// Norm returns ⟨ψ|ψ⟩.
func (s *State) Norm() float64 {
	n := 0.0
	for _, a := range s.Amp {
		n += real(a)*real(a) + imag(a)*imag(a)
	}
	return n
}

// ApplyGate applies one gate in place.
func (s *State) ApplyGate(g circuit.Gate) {
	switch g.Kind {
	case circuit.KindSingle:
		stride := 1 << uint(g.Q)
		for base := 0; base < len(s.Amp); base += stride * 2 {
			for i := base; i < base+stride; i++ {
				a, b := s.Amp[i], s.Amp[i+stride]
				s.Amp[i] = g.M[0][0]*a + g.M[0][1]*b
				s.Amp[i+stride] = g.M[1][0]*a + g.M[1][1]*b
			}
		}
	case circuit.KindCNOT:
		cm := 1 << uint(g.Q2)
		tm := 1 << uint(g.Q)
		for i := range s.Amp {
			if i&cm != 0 && i&tm == 0 {
				s.Amp[i], s.Amp[i|tm] = s.Amp[i|tm], s.Amp[i]
			}
		}
	}
}

// ApplyCircuit applies all gates in order.
func (s *State) ApplyCircuit(c *circuit.Circuit) {
	if c.N != s.N {
		panic("sim: circuit/state size mismatch")
	}
	for _, g := range c.Gates {
		s.ApplyGate(g)
	}
}

// ApplyPauli applies a Pauli string (with its phase) in place, allocating
// nothing: the X-type mask pairs amplitudes i ↔ i⊕flip and the Z-type mask
// supplies each side's sign through one popcount parity.
//
//hatt:noalloc
func (s *State) ApplyPauli(p pauli.String) {
	if p.N() != s.N {
		panic("sim: pauli/state size mismatch")
	}
	m := masksFor(p)
	amp := s.Amp
	if m.flip == 0 {
		if m.zmask == 0 && m.coeff == 1 {
			return
		}
		for i := range amp {
			amp[i] *= m.amp(i)
		}
		return
	}
	pair := m.pairBit()
	for i := range amp {
		if uint64(i)&pair != 0 {
			continue
		}
		j := i ^ int(m.flip)
		a, b := amp[i], amp[j]
		amp[j] = m.amp(i) * a
		amp[i] = m.amp(j) * b
	}
}

// ApplyPauliSlow is the pre-mask reference implementation of ApplyPauli:
// per-letter dispatch per amplitude into a freshly allocated vector. It is
// retained for differential tests and before/after benchmarks and must not
// be used on hot paths.
func (s *State) ApplyPauliSlow(p pauli.String) {
	if p.N() != s.N {
		panic("sim: pauli/state size mismatch")
	}
	coeff := p.LetterCoeff()
	var flip int
	sup := p.Support()
	for _, q := range sup {
		if l := p.Letter(q); l == pauli.X || l == pauli.Y {
			flip |= 1 << uint(q)
		}
	}
	out := make([]complex128, len(s.Amp))
	for i, a := range s.Amp {
		amp := coeff * a
		for _, q := range sup {
			bit := i >> uint(q) & 1
			switch p.Letter(q) {
			case pauli.Z:
				if bit == 1 {
					amp = -amp
				}
			case pauli.Y:
				if bit == 0 {
					amp *= complex(0, 1)
				} else {
					amp *= complex(0, -1)
				}
			}
		}
		out[i^flip] = amp
	}
	s.Amp = out
}

// ExpectationString returns ⟨ψ|P|ψ⟩ in one streaming pass with no clone:
// ⟨ψ|P|ψ⟩ = Σ_j conj(ψ_j)·(Pψ)_j with (Pψ)_j read off the masks.
//
//hatt:noalloc
func (s *State) ExpectationString(p pauli.String) complex128 {
	if p.N() != s.N {
		panic("sim: pauli/state size mismatch")
	}
	m := masksFor(p)
	amp := s.Amp
	var e complex128
	for j := range amp {
		src := j ^ int(m.flip)
		e += cmplx.Conj(amp[j]) * m.amp(src) * amp[src]
	}
	return e
}

// Expectation returns ⟨ψ|H|ψ⟩ (real part; H should be Hermitian).
// Evaluating a T-term Hamiltonian on a 2^n state is T×O(2^n) bit-ops with
// zero heap allocations once the Hamiltonian's term cache is warm.
//
//hatt:noalloc
func (s *State) Expectation(h *pauli.Hamiltonian) float64 {
	if h.N() != s.N {
		panic("sim: hamiltonian/state size mismatch")
	}
	e := 0.0
	for _, t := range h.Terms() {
		e += real(t.Coeff * s.ExpectationString(t.S))
	}
	return e
}

// Fidelity returns |⟨a|b⟩|².
func Fidelity(a, b *State) float64 {
	var ov complex128
	for i := range a.Amp {
		ov += cmplx.Conj(a.Amp[i]) * b.Amp[i]
	}
	m := cmplx.Abs(ov)
	return m * m
}

// NoiseModel is the depolarizing + readout error model of §V-B4/5.
type NoiseModel struct {
	P1      float64 // depolarizing probability after each single-qubit gate
	P2      float64 // depolarizing probability after each CNOT
	Readout float64 // per-qubit readout bit-flip probability
}

// IonQForte1 returns the noise profile of the paper's real-system study:
// 99.98% single-qubit fidelity, 98.99% two-qubit fidelity, 99.02% readout.
func IonQForte1() NoiseModel {
	return NoiseModel{P1: 1 - 0.9998, P2: 1 - 0.9899, Readout: 1 - 0.9902}
}

var pauliLetters = []pauli.Letter{pauli.X, pauli.Y, pauli.Z}

// applyRandomPauli injects a uniform non-identity Pauli on one qubit.
func (s *State) applyRandomPauli(q int, r *rand.Rand) {
	p := pauli.Identity(s.N)
	p.SetLetter(q, pauliLetters[r.Intn(3)])
	s.ApplyPauli(p)
}

// Trajectory executes the circuit under one Monte-Carlo noise realization:
// after each gate, with the model's probability, a uniform random
// non-identity Pauli hits the gate's qubit(s).
func (s *State) Trajectory(c *circuit.Circuit, nm NoiseModel, r *rand.Rand) {
	for _, g := range c.Gates {
		s.ApplyGate(g)
		switch g.Kind {
		case circuit.KindSingle:
			if nm.P1 > 0 && r.Float64() < nm.P1 {
				s.applyRandomPauli(g.Q, r)
			}
		case circuit.KindCNOT:
			if nm.P2 > 0 && r.Float64() < nm.P2 {
				// Uniform over the 15 non-II two-qubit Paulis.
				k := 1 + r.Intn(15)
				p := pauli.Identity(s.N)
				if k%4 != 0 {
					p.SetLetter(g.Q, pauli.Letter(k%4))
				}
				if k/4 != 0 {
					p.SetLetter(g.Q2, pauli.Letter(k/4))
				}
				s.ApplyPauli(p)
			}
		}
	}
}

// SampleEnergy draws one "shot": for every Hamiltonian term it samples a
// ±1 measurement outcome from the term's expectation value on the state,
// flips the outcome through per-qubit readout errors, and sums
// coefficient-weighted outcomes (plus the identity component). This is the
// standard simplification that measures all terms per shot.
func SampleEnergy(s *State, h *pauli.Hamiltonian, nm NoiseModel, r *rand.Rand) float64 {
	e := 0.0
	for _, t := range h.Terms() {
		c := real(t.Coeff)
		if t.S.IsIdentity() {
			e += c
			continue
		}
		exp := real(s.ExpectationString(t.S))
		if exp > 1 {
			exp = 1
		}
		if exp < -1 {
			exp = -1
		}
		outcome := -1.0
		if r.Float64() < (1+exp)/2 {
			outcome = 1.0
		}
		if nm.Readout > 0 {
			// Each measured qubit's bit flips independently; the outcome
			// sign flips when an odd number flip.
			w := t.S.Weight()
			pFlip := (1 - math.Pow(1-2*nm.Readout, float64(w))) / 2
			if r.Float64() < pFlip {
				outcome = -outcome
			}
		}
		e += c * outcome
	}
	return e
}

// EstimateResult summarizes a noisy shot-sampled energy estimation.
type EstimateResult struct {
	Mean     float64 // mean energy over shots
	Variance float64 // variance of the per-shot energies
	Bias     float64 // |Mean − Ideal|
	Ideal    float64 // noiseless expectation of the same circuit
}

// EstimateFrom runs `shots` noisy trajectories of the circuit from init
// (|0…0⟩ or, e.g., a prepared Hartree–Fock state), drawing one energy
// sample per trajectory, and reports mean, variance, and bias against the
// noiseless circuit expectation.
func EstimateFrom(init *State, c *circuit.Circuit, h *pauli.Hamiltonian, nm NoiseModel, shots int, seed int64) EstimateResult {
	ideal := init.Clone()
	ideal.ApplyCircuit(c)
	idealE := ideal.Expectation(h)

	r := rand.New(rand.NewSource(seed))
	sum, sumSq := 0.0, 0.0
	for s := 0; s < shots; s++ {
		st := init.Clone()
		st.Trajectory(c, nm, r)
		e := SampleEnergy(st, h, nm, r)
		sum += e
		sumSq += e * e
	}
	mean := sum / float64(shots)
	variance := sumSq/float64(shots) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return EstimateResult{
		Mean:     mean,
		Variance: variance,
		Bias:     math.Abs(mean - idealE),
		Ideal:    idealE,
	}
}

// PrepareOccupied returns the qubit state realizing the fermionic Fock
// state with the given occupied modes under the mapping:
// |ψ⟩ ∝ Π_j a†_j |vac⟩ with a†_j = (S_{2j} − i·S_{2j+1})/2 and |vac⟩ =
// |0…0⟩ (valid for vacuum-preserving mappings; for others this still
// produces the correctly mapped Fock state as long as the result is
// nonzero).
func PrepareOccupied(m *mapping.Mapping, occupied []int) (*State, error) {
	s := NewState(m.Qubits())
	for i := len(occupied) - 1; i >= 0; i-- {
		j := occupied[i]
		t1 := s.Clone()
		t1.ApplyPauli(m.Majorana(2 * j))
		t2 := s.Clone()
		t2.ApplyPauli(m.Majorana(2*j + 1))
		for k := range s.Amp {
			s.Amp[k] = (t1.Amp[k] - complex(0, 1)*t2.Amp[k]) / 2
		}
	}
	n := s.Norm()
	if n < 1e-12 {
		return nil, fmt.Errorf("sim: occupied-state preparation vanished (mode list %v)", occupied)
	}
	scale := complex(1/math.Sqrt(n), 0)
	for k := range s.Amp {
		s.Amp[k] *= scale
	}
	return s, nil
}
