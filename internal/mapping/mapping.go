// Package mapping defines fermion-to-qubit mappings and implements the
// constructive baselines the paper compares against: Jordan–Wigner (JW),
// Bravyi–Kitaev (BK, via Fenwick trees), and the balanced ternary tree
// (BTT) of Jiang et al. The HATT mappings produced by internal/core are
// returned as the same Mapping type, so the whole evaluation pipeline is
// mapping-agnostic.
//
// A mapping assigns to each of the 2N Majorana operators a Pauli string on
// N qubits such that the strings pairwise anticommute and each squares to
// +1 — exactly the condition for {M_i, M_j} = 2δ_ij.
package mapping

import (
	"fmt"

	"repro/internal/fermion"
	"repro/internal/pauli"
	"repro/internal/tree"
)

// Mapping is a concrete fermion-to-qubit mapping: 2N Majorana Pauli
// strings on N qubits, indexed by Majorana operator index.
type Mapping struct {
	Name      string
	Modes     int
	Majoranas []pauli.String
}

// Qubits returns the number of qubits the mapping targets.
func (m *Mapping) Qubits() int {
	if len(m.Majoranas) == 0 {
		return 0
	}
	return m.Majoranas[0].N()
}

// Majorana returns the Pauli string of Majorana operator j.
func (m *Mapping) Majorana(j int) pauli.String {
	return m.Majoranas[j]
}

// Verify checks the defining algebra: exactly 2·Modes strings, all on the
// same qubit count, pairwise anticommuting, each Hermitian (letter phase
// real) and hence squaring to +1.
func (m *Mapping) Verify() error {
	if len(m.Majoranas) != 2*m.Modes {
		return fmt.Errorf("mapping %s: %d Majoranas, want %d", m.Name, len(m.Majoranas), 2*m.Modes)
	}
	n := m.Qubits()
	for i, s := range m.Majoranas {
		if s.N() != n {
			return fmt.Errorf("mapping %s: M%d on %d qubits, want %d", m.Name, i, s.N(), n)
		}
		if p := s.LetterPhase(); p != 0 && p != 2 {
			return fmt.Errorf("mapping %s: M%d not Hermitian (phase i^%d)", m.Name, i, p)
		}
		if s.IsIdentity() {
			return fmt.Errorf("mapping %s: M%d is the identity", m.Name, i)
		}
	}
	for i := range m.Majoranas {
		for j := i + 1; j < len(m.Majoranas); j++ {
			if !m.Majoranas[i].Anticommutes(m.Majoranas[j]) {
				return fmt.Errorf("mapping %s: M%d and M%d commute", m.Name, i, j)
			}
		}
	}
	return nil
}

// Apply maps a Majorana-form fermionic Hamiltonian to the qubit
// Hamiltonian by substituting each Majorana index with its Pauli string and
// multiplying out each monomial with exact phases.
//
//hatt:noalloc
func (m *Mapping) Apply(mh *fermion.MajoranaHamiltonian) *pauli.Hamiltonian {
	if mh.Modes != m.Modes {
		panic(fmt.Sprintf("mapping %s: Hamiltonian on %d modes, mapping on %d", m.Name, mh.Modes, m.Modes))
	}
	h := pauli.NewHamiltonian(m.Qubits())
	// One reused accumulator string per call: each monomial is multiplied
	// out in place and handed to the fingerprint-keyed Add, so the
	// substitution allocates only when a new term is first stored.
	s := pauli.Identity(m.Qubits())
	for _, t := range mh.Terms {
		s.Reset()
		for _, idx := range t.Indices {
			s.MulAssign(m.Majoranas[idx])
		}
		h.Add(t.Coeff, s)
	}
	h.Prune(1e-12)
	return h
}

// ApplyFermionic is a convenience wrapper: second-quantized Hamiltonian in,
// qubit Hamiltonian out.
func (m *Mapping) ApplyFermionic(h *fermion.Hamiltonian) *pauli.Hamiltonian {
	return m.Apply(h.Majorana(1e-14))
}

// VacuumPreserved reports whether the mapping sends the fermionic vacuum to
// |0…0⟩: for every mode j, a_j |0…0⟩ = 0, i.e. (S_{2j} + i·S_{2j+1})
// annihilates the all-zero state. Both strings must flip the same set of
// qubits and their amplitudes on |0…0⟩ must cancel. In the symplectic
// form s = i^Phase·X^x·Z^z the Z factor fixes |0…0⟩, so s|0…0⟩ is
// exactly i^Phase·|x⟩ (each Y letter's i from Y|0⟩ = i|1⟩ is already
// folded into Phase).
func (m *Mapping) VacuumPreserved() bool {
	for j := 0; j < m.Modes; j++ {
		s1, s2 := m.Majoranas[2*j], m.Majoranas[2*j+1]
		if !s1.SameFlips(s2) {
			return false
		}
		if s := s1.PhaseCoeff() + complex(0, 1)*s2.PhaseCoeff(); real(s)*real(s)+imag(s)*imag(s) > 1e-20 {
			return false
		}
	}
	return true
}

// HamiltonianWeight is the paper's primary metric: the total Pauli weight
// of the qubit Hamiltonian obtained from this mapping.
func (m *Mapping) HamiltonianWeight(mh *fermion.MajoranaHamiltonian) int {
	return m.Apply(mh).Weight()
}

// FromTreePaired builds a mapping from any complete ternary tree using the
// canonical vacuum-preserving leaf pairing (used by the BTT baseline).
func FromTreePaired(name string, t *tree.Tree) *Mapping {
	assign := t.MajoranaAssignment()
	ss := t.AllStrings()
	mj := make([]pauli.String, 2*t.N)
	for i, leafID := range assign {
		mj[i] = ss[leafID]
	}
	return &Mapping{Name: name, Modes: t.N, Majoranas: mj}
}

// FromTreeByLeafID builds a mapping whose Majorana index j is realized by
// the string of leaf ID j, discarding leaf 2N. This is HATT's convention:
// the construction fixes leaf IDs to Majorana indices up front.
func FromTreeByLeafID(name string, t *tree.Tree) *Mapping {
	ss := t.AllStrings()
	mj := make([]pauli.String, 2*t.N)
	copy(mj, ss[:2*t.N])
	return &Mapping{Name: name, Modes: t.N, Majoranas: mj}
}
