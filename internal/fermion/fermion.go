// Package fermion implements second-quantized fermionic operators and
// Hamiltonians, plus their expansion into Majorana monomials (Eq. 2 of the
// paper):
//
//	a†_j = (M_{2j} − i·M_{2j+1}) / 2
//	a_j  = (M_{2j} + i·M_{2j+1}) / 2
//
// A fermionic Hamiltonian is a weighted sum of products of creation and
// annihilation operators. The Majorana expansion normal-orders Majorana
// monomials using M_i² = 1 and M_i M_j = −M_j M_i (i≠j) and collects equal
// monomials, producing the preprocessed Hamiltonian H_Q that the HATT
// construction (and every other mapping) consumes.
package fermion

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"slices"
	"strconv"
	"strings"
)

// Op is a single creation (Dagger) or annihilation operator on a mode.
type Op struct {
	Mode   int
	Dagger bool
}

// String renders the operator, e.g. "a†3" or "a1".
func (o Op) String() string {
	if o.Dagger {
		return fmt.Sprintf("a†%d", o.Mode)
	}
	return fmt.Sprintf("a%d", o.Mode)
}

// Term is a weighted product of creation/annihilation operators, applied
// right-to-left (Ops[0] is the leftmost operator, matching written order).
type Term struct {
	Coeff complex128
	Ops   []Op
}

// Hamiltonian is a second-quantized fermionic Hamiltonian on Modes modes.
type Hamiltonian struct {
	Modes int
	Terms []Term
}

// NewHamiltonian returns an empty Hamiltonian on n modes.
func NewHamiltonian(n int) *Hamiltonian {
	if n <= 0 {
		panic("fermion: mode count must be positive")
	}
	return &Hamiltonian{Modes: n}
}

// Add appends the term c·ops to the Hamiltonian. Ops are given in written
// (left-to-right) order. Panics if a mode is out of range.
func (h *Hamiltonian) Add(c complex128, ops ...Op) {
	for _, o := range ops {
		if o.Mode < 0 || o.Mode >= h.Modes {
			panic(fmt.Sprintf("fermion: mode %d out of range [0,%d)", o.Mode, h.Modes))
		}
	}
	cp := make([]Op, len(ops))
	copy(cp, ops)
	h.Terms = append(h.Terms, Term{Coeff: c, Ops: cp})
}

// AddHermitian adds c·ops plus its Hermitian conjugate conj(c)·ops†
// (operators reversed, daggers flipped). If the term is its own conjugate
// — same operator sequence after conjugation and real coefficient — it is
// added only once.
func (h *Hamiltonian) AddHermitian(c complex128, ops ...Op) {
	h.Add(c, ops...)
	conj := make([]Op, len(ops))
	for i, o := range ops {
		conj[len(ops)-1-i] = Op{Mode: o.Mode, Dagger: !o.Dagger}
	}
	if opsEqual(ops, conj) && imag(c) == 0 {
		return
	}
	h.Add(cmplx.Conj(c), conj...)
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NumTerms returns the number of stored second-quantized terms.
func (h *Hamiltonian) NumTerms() int { return len(h.Terms) }

// String renders the Hamiltonian in written form.
func (h *Hamiltonian) String() string {
	parts := make([]string, 0, len(h.Terms))
	for _, t := range h.Terms {
		var b strings.Builder
		fmt.Fprintf(&b, "(%.4g%+.4gi)", real(t.Coeff), imag(t.Coeff))
		for _, o := range t.Ops {
			b.WriteString(" ")
			b.WriteString(o.String())
		}
		parts = append(parts, b.String())
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " + ")
}

// MajoranaTerm is a weighted normal-ordered Majorana monomial: Coeff times
// the ordered product Π M_i over the strictly increasing Indices.
type MajoranaTerm struct {
	Coeff   complex128
	Indices []int // strictly increasing; empty means the identity
}

// MajoranaHamiltonian is the Majorana-monomial form of a fermionic
// Hamiltonian on 2·Modes Majorana operators.
type MajoranaHamiltonian struct {
	Modes int
	Terms []MajoranaTerm
}

// Majorana expands the Hamiltonian into normal-ordered Majorana monomials,
// merging equal monomials and dropping those whose coefficients cancel
// below eps. This is the "preprocess" step of Algorithm 1.
//
// The result is a pure function of the term list, down to the float bits:
// each term's 2^k monomials are visited in binary order (its first
// operator is the most significant choice), a monomial seen before is
// summed as new + previous in that visiting order, and the survivors are
// sorted by compareMonomials.
func (h *Hamiltonian) Majorana(eps float64) *MajoranaHamiltonian {
	// sets starts non-nil, so an identity term's Indices is empty, not nil.
	x := expansion{slots: make([]int32, 64), shift: 64 - 6, sets: make([]int, 0, 64)}
	for _, t := range h.Terms {
		x.addTerm(t)
	}
	return x.result(h.Modes, eps)
}

// MonomialCount returns the number of monomials Majorana visits, Σ 2^k
// over terms of k operators, without expanding anything. It saturates at
// math.MaxInt, so an untrusted Hamiltonian can be priced before it is
// expanded.
func (h *Hamiltonian) MonomialCount() int {
	n := 0
	for _, t := range h.Terms {
		k := len(t.Ops)
		if k >= bits.UintSize-1 || n > math.MaxInt-(1<<k) {
			return math.MaxInt
		}
		n += 1 << k
	}
	return n
}

// expansion accumulates the distinct monomials of one Majorana expansion.
// Its buffers are reused from monomial to monomial, so a monomial
// allocates nothing unless its index set is new.
type expansion struct {
	// slots is an open-addressing hash table over sums, probed linearly
	// from the top bits of an index set's hash: 0 is empty and s names
	// sums[s-1]. It holds 2^(64-shift) slots, at least twice len(sums).
	slots []int32
	shift uint
	sums  []monomialSum
	sets  []int // every distinct index set, back to back

	coeff  []complex128 // coeff[j]: the term's coefficient times its first j factors
	choice []bool       // choice[j]: operator j contributes M_{2m+1}, not M_{2m}
	idx    []int
}

// monomialSum is one distinct monomial: its summed coefficient and its
// strictly increasing index set sets[from:to].
type monomialSum struct {
	coeff    complex128
	hash     uint64
	from, to int
}

// addTerm visits the term's 2^k monomials. Each operator contributes one
// of its two Majoranas, a_m = (M_{2m} + i·M_{2m+1})/2 and
// a†_m = (M_{2m} − i·M_{2m+1})/2, and the walk is an odometer over those
// choices: it needs no 2^k-sized buffer and no shift that could overflow,
// and each coefficient is the same chain of products the factors give.
func (x *expansion) addTerm(t Term) {
	k := len(t.Ops)
	x.coeff = append(x.coeff[:0], t.Coeff)
	x.choice = x.choice[:0]
	for j := 0; j < k; j++ {
		x.coeff = append(x.coeff, x.coeff[j]*0.5)
		x.choice = append(x.choice, false)
	}
	x.idx = slices.Grow(x.idx[:0], k)
	for {
		x.add(t.Ops, x.coeff[k])
		// The last operator still on M_{2m} moves to M_{2m+1}, and every
		// operator after it resets to M_{2m}.
		j := k - 1
		for j >= 0 && x.choice[j] {
			j--
		}
		if j < 0 {
			return
		}
		x.choice[j] = true
		f := complex(0, 0.5) // +i/2 for a
		if t.Ops[j].Dagger {
			f = complex(0, -0.5) // −i/2 for a†
		}
		x.coeff[j+1] = x.coeff[j] * f
		for j++; j < k; j++ {
			x.choice[j] = false
			x.coeff[j+1] = x.coeff[j] * 0.5
		}
	}
}

// add normal-orders the monomial of the current choices with
// M_i·M_j = −M_j·M_i (i ≠ j) and M_i·M_i = 1, then sums c into it.
func (x *expansion) add(ops []Op, c complex128) {
	idx := x.idx[:len(ops)]
	for j, o := range ops {
		idx[j] = 2 * o.Mode
		if x.choice[j] {
			idx[j]++
		}
	}
	// Insertion sort; every adjacent swap flips the sign.
	neg := false
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j-1] > idx[j]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			neg = !neg
		}
	}
	// Cancel equal adjacent pairs, hashing what is left.
	n := 0
	h := uint64(0)
	for i := 0; i < len(idx); i++ {
		if i+1 < len(idx) && idx[i] == idx[i+1] {
			i++
			continue
		}
		idx[n] = idx[i]
		n++
		h = (h ^ uint64(idx[i]+1)) * 0x9e3779b97f4a7c15
	}
	if neg {
		c = -c
	}
	set := idx[:n]
	mask := len(x.slots) - 1
	p := int(h >> x.shift)
	for ; x.slots[p] != 0; p = (p + 1) & mask {
		if m := &x.sums[x.slots[p]-1]; m.hash == h && slices.Equal(x.sets[m.from:m.to], set) {
			m.coeff = c + m.coeff
			return
		}
	}
	from := len(x.sets)
	x.sets = append(x.sets, set...)
	x.sums = append(x.sums, monomialSum{coeff: c, hash: h, from: from, to: len(x.sets)})
	x.slots[p] = int32(len(x.sums))
	if 2*len(x.sums) > len(x.slots) {
		x.grow()
	}
}

// grow doubles the hash table and reinserts every distinct monomial.
func (x *expansion) grow() {
	x.slots = make([]int32, 2*len(x.slots))
	x.shift--
	mask := len(x.slots) - 1
	for i, m := range x.sums {
		p := int(m.hash >> x.shift)
		for x.slots[p] != 0 {
			p = (p + 1) & mask
		}
		x.slots[p] = int32(i + 1)
	}
}

// result drops the monomials whose coefficients cancel below eps and
// returns the rest in compareMonomials order. Their index sets share one
// backing array, each clipped to its own length.
func (x *expansion) result(modes int, eps float64) *MajoranaHamiltonian {
	out := &MajoranaHamiltonian{Modes: modes}
	terms := make([]MajoranaTerm, 0, len(x.sums))
	for _, s := range x.sums {
		if cmplx.Abs(s.coeff) <= eps {
			continue
		}
		terms = append(terms, MajoranaTerm{Coeff: s.coeff, Indices: x.sets[s.from:s.to:s.to]})
	}
	if len(terms) > 0 {
		slices.SortFunc(terms, func(a, b MajoranaTerm) int { return compareMonomials(a.Indices, b.Indices) })
		out.Terms = terms
	}
	return out
}

// compareMonomials orders index sets the way their strings "i,j,k," sort:
// indices compare one by one as decimal strings (so 10 sorts before 9),
// and a proper prefix sorts first. Majorana has always emitted terms in
// this order, and Fingerprint hashes them in it, so every content address
// in the mapping store depends on it: another order would orphan every
// stored mapping.
func compareMonomials(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			var da, db [20]byte
			return bytes.Compare(strconv.AppendInt(da[:0], int64(a[i]), 10), strconv.AppendInt(db[:0], int64(b[i]), 10))
		}
	}
	return cmp.Compare(len(a), len(b))
}

// IsHermitian reports whether the Majorana Hamiltonian is Hermitian within
// eps: a monomial of k Majoranas conjugates to itself times (−1)^{k(k−1)/2},
// so Hermiticity requires Coeff·(−1)^{k(k−1)/2} to equal conj(Coeff).
func (m *MajoranaHamiltonian) IsHermitian(eps float64) bool {
	for _, t := range m.Terms {
		k := len(t.Indices)
		sign := complex128(1)
		if (k*(k-1)/2)%2 == 1 {
			sign = -1
		}
		if cmplx.Abs(t.Coeff*sign-cmplx.Conj(t.Coeff)) > eps {
			return false
		}
	}
	return true
}

// String renders the Majorana Hamiltonian.
func (m *MajoranaHamiltonian) String() string {
	parts := make([]string, 0, len(m.Terms))
	for _, t := range m.Terms {
		var b strings.Builder
		fmt.Fprintf(&b, "(%.4g%+.4gi)", real(t.Coeff), imag(t.Coeff))
		if len(t.Indices) == 0 {
			b.WriteString("·1")
		}
		for _, i := range t.Indices {
			fmt.Fprintf(&b, "·M%d", i)
		}
		parts = append(parts, b.String())
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " + ")
}

// IndexSets returns the non-identity monomial index sets, used to seed the
// HATT weight oracle. Identity monomials (constants) are skipped: they
// contribute no Pauli weight.
func (m *MajoranaHamiltonian) IndexSets() [][]int {
	var out [][]int
	for _, t := range m.Terms {
		if len(t.Indices) == 0 {
			continue
		}
		out = append(out, t.Indices)
	}
	return out
}

// A convenience constructor set for tests and examples.

// Number returns the number operator a†_j a_j as a Hamiltonian fragment.
func Number(n, j int) *Hamiltonian {
	h := NewHamiltonian(n)
	h.Add(1, Op{j, true}, Op{j, false})
	return h
}

// Hop returns the Hermitian hopping term t·(a†_i a_j + a†_j a_i).
func Hop(n int, t float64, i, j int) *Hamiltonian {
	h := NewHamiltonian(n)
	h.AddHermitian(complex(t, 0), Op{i, true}, Op{j, false})
	return h
}
