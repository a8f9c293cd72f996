// Package taper implements Z₂-symmetry qubit tapering (Bravyi, Gambetta,
// Mezzacapo & Temme, "Tapering off qubits to simulate fermionic
// Hamiltonians" — reference [4] of the paper). Qubit Hamiltonians produced
// by fermion-to-qubit mappings carry global symmetries (particle-number
// parity per spin species, etc.); each independent symmetry lets one qubit
// be removed after a Clifford rotation, shrinking every mapping's circuits
// for free. This is the reduction machinery behind the paper's
// freeze-core-style workflow variants.
package taper

import (
	"context"
	"fmt"
	"math"

	"repro/internal/pauli"
)

// Symmetry is one tapered Z₂ generator: Tau commutes with every
// Hamiltonian term; after the Clifford rotation it becomes X on Qubit,
// whose eigenvalue Sector (±1) labels the symmetry block.
type Symmetry struct {
	Tau    pauli.String
	Qubit  int
	Sector int
}

// FindSymmetries returns a maximal set of independent, pairwise-commuting,
// non-identity Pauli strings that commute with every term of h: the GF(2)
// kernel of the term matrix under the symplectic form, greedily filtered
// to a mutually commuting subset.
func FindSymmetries(h *pauli.Hamiltonian) []pauli.String {
	n := h.N()
	terms := h.Terms()
	// Constraint: for candidate τ with bit vector v = (z_τ | x_τ):
	// Σ_q x_i(q)·z_τ(q) + z_i(q)·x_τ(q) ≡ 0 for every term i.
	cols := 2 * n
	var rows [][]uint64
	words := (cols + 63) / 64
	for _, t := range terms {
		if t.S.IsIdentity() {
			continue
		}
		row := make([]uint64, words)
		for q := 0; q < n; q++ {
			switch t.S.Letter(q) {
			case pauli.X:
				row[q/64] |= 1 << uint(q%64) // multiplies z_τ(q)
			case pauli.Z:
				row[(n+q)/64] |= 1 << uint((n+q)%64) // multiplies x_τ(q)
			case pauli.Y:
				row[q/64] |= 1 << uint(q%64)
				row[(n+q)/64] |= 1 << uint((n+q)%64)
			}
		}
		rows = append(rows, row)
	}
	kernel := gf2Kernel(rows, cols)
	// Reconstruct strings: v = (z | x).
	var cands []pauli.String
	for _, v := range kernel {
		s := pauli.Identity(n)
		for q := 0; q < n; q++ {
			zbit := v[q/64]>>uint(q%64)&1 == 1
			xbit := v[(n+q)/64]>>uint((n+q)%64)&1 == 1
			switch {
			case xbit && zbit:
				s.SetLetter(q, pauli.Y)
			case xbit:
				s.SetLetter(q, pauli.X)
			case zbit:
				s.SetLetter(q, pauli.Z)
			}
		}
		if !s.IsIdentity() {
			cands = append(cands, s)
		}
	}
	// Keep a pairwise-commuting subset (kernel vectors need not commute
	// with each other).
	var out []pauli.String
	for _, c := range cands {
		ok := true
		for _, o := range out {
			if !c.Commutes(o) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// gf2Kernel returns a basis of {v : A·v = 0} over GF(2).
func gf2Kernel(rows [][]uint64, cols int) [][]uint64 {
	words := (cols + 63) / 64
	// Row-reduce A, tracking pivot columns.
	a := make([][]uint64, len(rows))
	for i := range rows {
		a[i] = append([]uint64{}, rows[i]...)
	}
	pivotOfCol := make([]int, cols)
	for i := range pivotOfCol {
		pivotOfCol[i] = -1
	}
	rank := 0
	for c := 0; c < cols && rank < len(a); c++ {
		sel := -1
		for r := rank; r < len(a); r++ {
			if a[r][c/64]>>uint(c%64)&1 == 1 {
				sel = r
				break
			}
		}
		if sel < 0 {
			continue
		}
		a[rank], a[sel] = a[sel], a[rank]
		for r := 0; r < len(a); r++ {
			if r != rank && a[r][c/64]>>uint(c%64)&1 == 1 {
				for w := 0; w < words; w++ {
					a[r][w] ^= a[rank][w]
				}
			}
		}
		pivotOfCol[c] = rank
		rank++
	}
	// Free columns generate the kernel.
	var kernel [][]uint64
	for c := 0; c < cols; c++ {
		if pivotOfCol[c] != -1 {
			continue
		}
		v := make([]uint64, words)
		v[c/64] |= 1 << uint(c%64)
		// Back-substitute: for each pivot column p with row r, bit p of v
		// equals a[r]'s entry at column c.
		for p := 0; p < cols; p++ {
			r := pivotOfCol[p]
			if r == -1 {
				continue
			}
			if a[r][c/64]>>uint(c%64)&1 == 1 {
				v[p/64] |= 1 << uint(p%64)
			}
		}
		kernel = append(kernel, v)
	}
	return kernel
}

// chooseQubits assigns each symmetry a distinct qubit where its letter
// anticommutes with X (Z or Y) and every other symmetry's letter commutes
// with X (I or X). Returns an error when no valid assignment exists.
func chooseQubits(taus []pauli.String) ([]int, error) {
	n := 0
	if len(taus) > 0 {
		n = taus[0].N()
	}
	qubits := make([]int, len(taus))
	used := make([]bool, n)
	for i, tau := range taus {
		found := -1
		for q := 0; q < n && found < 0; q++ {
			if used[q] {
				continue
			}
			l := tau.Letter(q)
			if l != pauli.Z && l != pauli.Y {
				continue
			}
			ok := true
			for j, other := range taus {
				if j == i {
					continue
				}
				if lo := other.Letter(q); lo == pauli.Z || lo == pauli.Y {
					ok = false
					break
				}
			}
			if ok {
				found = q
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("taper: no rotation qubit for symmetry %s", tau)
		}
		qubits[i] = found
		used[found] = true
	}
	return qubits, nil
}

// rotate conjugates h by U = (X_q + τ)/√2: terms commuting with X_q are
// unchanged; terms anticommuting with it map to −P·X_q·τ. The symmetry τ
// itself maps to +X_q.
func rotate(h *pauli.Hamiltonian, tau pauli.String, q int) *pauli.Hamiltonian {
	n := h.N()
	sigma := pauli.Identity(n)
	sigma.SetLetter(q, pauli.X)
	out := pauli.NewHamiltonian(n)
	for _, t := range h.Terms() {
		if t.S.Commutes(sigma) {
			out.Add(t.Coeff, t.S)
			continue
		}
		out.Add(-t.Coeff, t.S.Mul(sigma).Mul(tau))
	}
	return out
}

// Result bundles a tapering outcome.
type Result struct {
	Reduced    *pauli.Hamiltonian // on n − k qubits
	Symmetries []Symmetry
	// KeptQubits[i] is the original index of reduced qubit i.
	KeptQubits []int
}

// TaperSector rotates every symmetry onto its qubit, substitutes the given
// sector eigenvalues (±1), and drops the symmetry qubits. len(sectors)
// must equal the number of symmetries found; use FindSymmetries to inspect
// them first.
func TaperSector(h *pauli.Hamiltonian, taus []pauli.String, sectors []int) (*Result, error) {
	if len(sectors) != len(taus) {
		return nil, fmt.Errorf("taper: %d sectors for %d symmetries", len(sectors), len(taus))
	}
	qubits, err := chooseQubits(taus)
	if err != nil {
		return nil, err
	}
	n := h.N()
	cur := h
	for i, tau := range taus {
		cur = rotate(cur, tau, qubits[i])
	}
	// Substitute X_{q_i} → sector_i and drop those qubits.
	drop := make(map[int]int) // qubit -> symmetry index
	for i, q := range qubits {
		drop[q] = i
	}
	var kept []int
	for q := 0; q < n; q++ {
		if _, isSym := drop[q]; !isSym {
			kept = append(kept, q)
		}
	}
	newIdx := make(map[int]int)
	for i, q := range kept {
		newIdx[q] = i
	}
	red := pauli.NewHamiltonian(len(kept))
	for _, t := range cur.Terms() {
		c := t.Coeff
		s := pauli.Identity(len(kept))
		for _, q := range t.S.Support() {
			l := t.S.Letter(q)
			if si, isSym := drop[q]; isSym {
				if l != pauli.X {
					return nil, fmt.Errorf("taper: residual %v on symmetry qubit %d (term %s)", l, q, t.S)
				}
				if sectors[si] < 0 {
					c = -c
				}
				continue
			}
			s.SetLetter(newIdx[q], l)
		}
		red.Add(c, s)
	}
	red.Prune(1e-12)
	syms := make([]Symmetry, len(taus))
	for i := range taus {
		syms[i] = Symmetry{Tau: taus[i], Qubit: qubits[i], Sector: sectors[i]}
	}
	return &Result{Reduced: red, Symmetries: syms, KeptQubits: kept}, nil
}

// GroundSector tries every sector assignment (2^k, guarded to k ≤ 12)
// and returns the tapering whose reduced ground energy matches the global
// minimum, together with that energy. groundEnergy is a caller-provided
// oracle (e.g. linalg.GroundEnergy) so this package stays dependency-free.
// The context is checked before each sector's eigensolve; on cancellation
// the sweep stops and returns ctx.Err().
func GroundSector(ctx context.Context, h *pauli.Hamiltonian, groundEnergy func(*pauli.Hamiltonian) float64) (*Result, float64, error) {
	taus := FindSymmetries(h)
	if len(taus) == 0 {
		return nil, 0, fmt.Errorf("taper: no symmetries found")
	}
	if len(taus) > 12 {
		return nil, 0, fmt.Errorf("taper: %d symmetries exceed the sector-sweep guard", len(taus))
	}
	bestE := math.Inf(1)
	var best *Result
	for bitsV := 0; bitsV < 1<<uint(len(taus)); bitsV++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		sectors := make([]int, len(taus))
		for i := range sectors {
			if bitsV>>uint(i)&1 == 1 {
				sectors[i] = -1
			} else {
				sectors[i] = 1
			}
		}
		res, err := TaperSector(h, taus, sectors)
		if err != nil {
			return nil, 0, err
		}
		if e := groundEnergy(res.Reduced); e < bestE {
			bestE = e
			best = res
		}
	}
	return best, bestE, nil
}
