// Package models generates the three families of benchmark fermionic
// Hamiltonians used in the paper's evaluation (§V-A):
//
//  1. electronic-structure models of molecules (quantum chemistry),
//  2. the Fermi–Hubbard lattice model (condensed matter), and
//  3. collective neutrino oscillations on a 1D momentum lattice
//     (astroparticle physics).
//
// The Fermi–Hubbard and neutrino models follow the paper's formulas
// exactly. For electronic structure the paper pulls molecular geometry from
// PubChem and integrals from PySCF; this repository is offline, so H₂
// STO-3G uses the published integral values and the larger molecules use
// seeded synthetic integrals with correct Hermitian/8-fold symmetries, mode
// counts matching Table I, and physically shaped magnitude decay. The
// optimization problem HATT solves depends on the *support structure* of
// the Hamiltonian, which these generators preserve.
package models

import (
	"strconv"

	"repro/internal/fermion"
)

// Case names a benchmark instance and its generator.
type Case struct {
	Name  string
	Modes int
	Build func() *fermion.Hamiltonian
}

// Electronic returns the Table-I molecule catalog.
func Electronic() []Case {
	// Locality values calibrate each synthetic molecule's sparsity so its
	// Jordan–Wigner Pauli weight lands near the paper's Table I, including
	// the table's non-monotonicity (CH4 denser than O2).
	return []Case{
		{"H2_sto3g", 4, func() *fermion.Hamiltonian { return H2STO3G() }},
		{"LiH_sto3g_frz", 6, func() *fermion.Hamiltonian { return SyntheticMolecule("LiH_frz", 6, 101, 0.35) }},
		{"LiH_sto3g", 12, func() *fermion.Hamiltonian { return SyntheticMolecule("LiH", 12, 102, 0.52) }},
		{"H2O_sto3g", 14, func() *fermion.Hamiltonian { return SyntheticMolecule("H2O", 14, 103, 0.56) }},
		{"CH4_sto3g", 18, func() *fermion.Hamiltonian { return SyntheticMolecule("CH4", 18, 104, 0.33) }},
		{"O2_sto3g", 20, func() *fermion.Hamiltonian { return SyntheticMolecule("O2", 20, 105, 0.63) }},
		{"NaF_sto3g", 28, func() *fermion.Hamiltonian { return SyntheticMolecule("NaF", 28, 106, 0.37) }},
		{"CO2_sto3g", 30, func() *fermion.Hamiltonian { return SyntheticMolecule("CO2", 30, 107, 0.45) }},
	}
}

// ElectronicExtended returns the additional molecule/basis variants the
// workflow tables (IV and V) evaluate: larger 6-31G bases and freeze-core
// variants, all synthetic with calibrated locality (H2 STO-3G stays real).
func ElectronicExtended() []Case {
	base := Electronic()
	extra := []Case{
		{"H2_631g", 8, func() *fermion.Hamiltonian { return SyntheticMolecule("H2_631g", 8, 201, 0.4) }},
		{"NH_sto3g_frz", 10, func() *fermion.Hamiltonian { return SyntheticMolecule("NH_frz", 10, 202, 0.4) }},
		{"BeH2_sto3g_frz", 12, func() *fermion.Hamiltonian { return SyntheticMolecule("BeH2_frz", 12, 203, 0.45) }},
		{"NH_sto3g", 16, func() *fermion.Hamiltonian { return SyntheticMolecule("NH", 16, 204, 0.45) }},
	}
	return append(base, extra...)
}

// Hubbard returns the Table-II lattice catalog.
func Hubbard() []Case {
	geoms := [][2]int{{2, 2}, {2, 3}, {2, 4}, {3, 3}, {2, 5}, {3, 4}, {2, 7}, {3, 5}, {4, 4}, {3, 6}, {4, 5}}
	out := make([]Case, 0, len(geoms))
	for _, g := range geoms {
		g := g
		out = append(out, Case{
			Name:  hubbardName(g[0], g[1]),
			Modes: 2 * g[0] * g[1],
			Build: func() *fermion.Hamiltonian { return FermiHubbard(g[0], g[1], 1.0, 4.0) },
		})
	}
	return out
}

func hubbardName(r, c int) string {
	return strconv.Itoa(r) + "x" + strconv.Itoa(c)
}

// Neutrino returns the Table-III catalog.
func Neutrino() []Case {
	specs := [][2]int{{3, 2}, {4, 2}, {3, 3}, {5, 2}, {4, 3}, {6, 2}, {7, 2}, {5, 3}, {6, 3}, {7, 3}}
	out := make([]Case, 0, len(specs))
	for _, s := range specs {
		s := s
		out = append(out, Case{
			Name:  strconv.Itoa(s[0]) + "x" + strconv.Itoa(s[1]) + "F",
			Modes: 2 * s[0] * s[1],
			Build: func() *fermion.Hamiltonian { return NeutrinoOscillation(s[0], s[1], 1.0) },
		})
	}
	return out
}
