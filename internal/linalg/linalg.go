// Package linalg provides the minimal dense linear algebra the repository
// needs: building the dense matrix of a Pauli-string Hamiltonian and
// computing eigenvalues of Hermitian matrices with the cyclic Jacobi method
// (via the standard embedding of an n×n complex Hermitian matrix into a
// 2n×2n real symmetric one).
//
// It exists because the evaluation needs "theoretical" system energies
// (ground states for Fig. 11) and because comparing full spectra across
// fermion-to-qubit mappings is the strongest correctness oracle available:
// all valid mappings of the same fermionic Hamiltonian are unitarily
// equivalent and must have identical spectra.
package linalg

import (
	"math"
	"sort"

	"repro/internal/pauli"
)

// Dense is a dense complex matrix in row-major order.
type Dense struct {
	N    int
	Data []complex128 // len N*N
}

// NewDense returns a zero N×N matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, Data: make([]complex128, n*n)}
}

// At returns element (r,c).
func (d *Dense) At(r, c int) complex128 { return d.Data[r*d.N+c] }

// AddAt accumulates v into element (r,c).
func (d *Dense) AddAt(r, c int, v complex128) { d.Data[r*d.N+c] += v }

// Matrix builds the 2^n × 2^n dense matrix of a Pauli Hamiltonian.
// Basis ordering: basis state index b has qubit q occupied iff bit q of b
// is set. Intended for small n (≤ ~12).
func Matrix(h *pauli.Hamiltonian) *Dense {
	n := h.N()
	dim := 1 << uint(n)
	m := NewDense(dim)
	for _, t := range h.Terms() {
		// Each Pauli string is a signed permutation matrix: column b maps
		// to row b^flip with a phase.
		var flip uint64
		for _, q := range t.S.Support() {
			l := t.S.Letter(q)
			if l == pauli.X || l == pauli.Y {
				flip |= 1 << uint(q)
			}
		}
		for b := 0; b < dim; b++ {
			amp := t.Coeff
			for _, q := range t.S.Support() {
				bit := uint64(b) >> uint(q) & 1
				switch t.S.Letter(q) {
				case pauli.Z:
					if bit == 1 {
						amp = -amp
					}
				case pauli.Y:
					// Y|0⟩ = i|1⟩, Y|1⟩ = −i|0⟩.
					if bit == 0 {
						amp *= complex(0, 1)
					} else {
						amp *= complex(0, -1)
					}
				}
			}
			m.AddAt(b^int(flip), b, amp)
		}
	}
	return m
}

// EigenvaluesHermitian returns the sorted (ascending) eigenvalues of a
// Hermitian matrix using cyclic Jacobi on the real-symmetric embedding
// [[Re, −Im], [Im, Re]]; each eigenvalue of the original appears twice in
// the embedding, so duplicates are collapsed by taking every other value.
func EigenvaluesHermitian(d *Dense) []float64 {
	n := d.N
	m := 2 * n
	a := make([]float64, m*m)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := d.At(r, c)
			a[r*m+c] = real(v)
			a[(r+n)*m+c+n] = real(v)
			a[(r+n)*m+c] = imag(v)
			a[r*m+c+n] = -imag(v)
		}
	}
	ev := jacobiSymmetric(a, m)
	sort.Float64s(ev)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = (ev[2*i] + ev[2*i+1]) / 2 // average the degenerate pair
	}
	return out
}

// jacobiSymmetric destroys a (m×m row-major symmetric) and returns its
// eigenvalues via cyclic Jacobi rotations.
func jacobiSymmetric(a []float64, m int) []float64 {
	const maxSweeps = 100
	const tol = 1e-13
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for r := 0; r < m; r++ {
			for c := r + 1; c < m; c++ {
				off += a[r*m+c] * a[r*m+c]
			}
		}
		if math.Sqrt(off) < tol {
			break
		}
		for p := 0; p < m-1; p++ {
			for q := p + 1; q < m; q++ {
				apq := a[p*m+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := a[p*m+p], a[q*m+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Apply rotation J(p,q,θ)ᵀ·A·J(p,q,θ).
				for k := 0; k < m; k++ {
					akp, akq := a[k*m+p], a[k*m+q]
					a[k*m+p] = c*akp - s*akq
					a[k*m+q] = s*akp + c*akq
				}
				for k := 0; k < m; k++ {
					apk, aqk := a[p*m+k], a[q*m+k]
					a[p*m+k] = c*apk - s*aqk
					a[q*m+k] = s*apk + c*aqk
				}
			}
		}
	}
	ev := make([]float64, m)
	for i := 0; i < m; i++ {
		ev[i] = a[i*m+i]
	}
	return ev
}

// GroundEnergy returns the smallest eigenvalue of the Hamiltonian.
func GroundEnergy(h *pauli.Hamiltonian) float64 {
	ev := EigenvaluesHermitian(Matrix(h))
	return ev[0]
}

// SpectraClose reports whether two sorted spectra agree within tol.
func SpectraClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
