package pauli_test

// External test package: exercises Fingerprint against the real term
// populations this repository produces — every bundled model family, mapped
// to qubits with Jordan–Wigner, Bravyi–Kitaev, and HATT — without creating
// an import cycle (models → fermion → pauli).

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/pauli"
)

// TestFingerprintCollisionFreeAcrossModels asserts that within every
// mapped model Hamiltonian, distinct letter patterns never share a
// fingerprint (and identical patterns always do): the property the
// fingerprint-keyed Hamiltonian map relies on for its fast path.
func TestFingerprintCollisionFreeAcrossModels(t *testing.T) {
	specs := []string{
		"h2", "molecule:8", "molecule:12",
		"hubbard:2x2", "hubbard:2x3", "hubbard:3x3",
		"neutrino:3x2", "neutrino:4x2",
	}
	for _, spec := range specs {
		h, err := models.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		mh := h.Majorana(1e-12)
		hatt, err := core.Build(context.Background(), mh, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		maps := []*mapping.Mapping{
			mapping.JordanWigner(h.Modes),
			mapping.BravyiKitaev(h.Modes),
			hatt.Mapping,
		}
		for _, m := range maps {
			hq := m.Apply(mh)
			byFP := map[pauli.Fingerprint]string{}
			for _, term := range hq.Terms() {
				fp := term.S.Fingerprint()
				key := term.S.Key()
				if prev, ok := byFP[fp]; ok && prev != key {
					t.Fatalf("%s/%s: fingerprint collision between distinct terms", spec, m.Name)
				}
				byFP[fp] = key
			}
			// Majorana strings too: they are Pauli strings and must
			// fingerprint the same way.
			for j, s := range m.Majoranas {
				for k := j + 1; k < len(m.Majoranas); k++ {
					same := s.EqualUpToPhase(m.Majoranas[k])
					if (s.Fingerprint() == m.Majoranas[k].Fingerprint()) != same {
						t.Fatalf("%s/%s: Majorana fingerprint mismatch at (%d,%d)", spec, m.Name, j, k)
					}
				}
			}
		}
	}
}
