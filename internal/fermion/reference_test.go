package fermion

import (
	"fmt"
	"math/cmplx"
	"sort"
	"strings"
)

// This file keeps the original, straightforward Majorana expansion as the
// reference the production kernel is fuzzed against: one heap-allocated
// monomial per product, a fmt-built string key per monomial, and
// sort.Strings over the keys. Majorana must return exactly what
// majoranaReference returns, bit for bit.

// monomial is a mutable Majorana monomial during expansion.
type monomial struct {
	coeff   complex128
	indices []int // arbitrary order until normalized
}

// normalize sorts indices with anticommutation sign tracking and cancels
// adjacent equal pairs (M² = 1). Returns the strictly-increasing index set
// and the signed coefficient.
func (m monomial) normalize() MajoranaTerm {
	idx := make([]int, len(m.indices))
	copy(idx, m.indices)
	sign := 1
	// Insertion sort, counting inversions (each adjacent swap flips sign).
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j-1] > idx[j]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			sign = -sign
		}
	}
	// Cancel equal adjacent pairs: M_i·M_i = 1.
	out := idx[:0]
	for i := 0; i < len(idx); {
		if i+1 < len(idx) && idx[i] == idx[i+1] {
			i += 2
			continue
		}
		out = append(out, idx[i])
		i++
	}
	c := m.coeff
	if sign < 0 {
		c = -c
	}
	res := make([]int, len(out))
	copy(res, out)
	return MajoranaTerm{Coeff: c, Indices: res}
}

func indexKey(idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&b, "%d,", i)
	}
	return b.String()
}

// majoranaReference expands the Hamiltonian into normal-ordered Majorana
// monomials, merging equal monomials and dropping those whose
// coefficients cancel below eps.
func (h *Hamiltonian) majoranaReference(eps float64) *MajoranaHamiltonian {
	acc := make(map[string]MajoranaTerm)
	for _, t := range h.Terms {
		// Expand each op into its two Majorana components:
		// a†_j = (M_{2j} − i·M_{2j+1})/2 ; a_j = (M_{2j} + i·M_{2j+1})/2.
		monos := []monomial{{coeff: t.Coeff}}
		for _, o := range t.Ops {
			next := make([]monomial, 0, 2*len(monos))
			sgn := complex(0, 0.5) // +i/2 for a
			if o.Dagger {
				sgn = complex(0, -0.5) // −i/2 for a†
			}
			for _, m := range monos {
				m1 := monomial{coeff: m.coeff * 0.5, indices: appendCopy(m.indices, 2*o.Mode)}
				m2 := monomial{coeff: m.coeff * sgn, indices: appendCopy(m.indices, 2*o.Mode+1)}
				next = append(next, m1, m2)
			}
			monos = next
		}
		for _, m := range monos {
			nt := m.normalize()
			k := indexKey(nt.Indices)
			prev, ok := acc[k]
			if ok {
				nt.Coeff += prev.Coeff
			}
			acc[k] = nt
		}
	}
	out := &MajoranaHamiltonian{Modes: h.Modes}
	keys := make([]string, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t := acc[k]
		if cmplx.Abs(t.Coeff) <= eps {
			continue
		}
		out.Terms = append(out.Terms, t)
	}
	return out
}

func appendCopy(s []int, v int) []int {
	r := make([]int, len(s), len(s)+1)
	copy(r, s)
	return append(r, v)
}
