// Package pauli implements the Pauli-string algebra that underlies every
// fermion-to-qubit mapping in this repository.
//
// A Pauli string on N qubits is stored in the symplectic representation: two
// bitsets X and Z plus a global phase that is a power of the imaginary unit i.
// The value represented is
//
//	i^Phase * Π_q X_q^{x_q} · Z_q^{z_q}
//
// where the product runs over qubits q = 0 … N-1 (qubit 0 is the rightmost
// operator when the string is printed, matching the paper's convention).
// The single-qubit letter Y is represented as x=z=1 with a phase bump of one
// because Y = i·X·Z.
//
// This representation makes multiplication, commutation checks, and weight
// computation O(N/64) with exact phase bookkeeping.
package pauli

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Letter identifies a single-qubit Pauli operator.
type Letter byte

// The four single-qubit Pauli operators.
const (
	I Letter = iota
	X
	Z
	Y
)

// String returns the conventional one-character name of the letter.
func (l Letter) String() string {
	switch l {
	case I:
		return "I"
	case X:
		return "X"
	case Y:
		return "Y"
	case Z:
		return "Z"
	}
	return "?"
}

// String is an N-qubit Pauli string with a global i^Phase prefactor.
// The zero value is not usable; construct strings with Identity, New, or
// Parse.
type String struct {
	n     int
	x, z  []uint64
	phase uint8 // power of i, mod 4
}

func words(n int) int { return (n + 63) / 64 }

// Identity returns the N-qubit identity string (phase 0).
func Identity(n int) String {
	if n < 0 {
		panic("pauli: negative qubit count")
	}
	return String{n: n, x: make([]uint64, words(n)), z: make([]uint64, words(n))}
}

// New builds a string from explicit letter placements. qubits and letters
// must have the same length; later entries act on the left (they multiply
// onto the accumulated string), so placing two letters on the same qubit
// composes them.
func New(n int, qubits []int, letters []Letter) String {
	if len(qubits) != len(letters) {
		panic("pauli: qubits/letters length mismatch")
	}
	s := Identity(n)
	for i, q := range qubits {
		s = s.Mul(single(n, q, letters[i]))
	}
	return s
}

// single returns the string with one letter at qubit q.
func single(n, q int, l Letter) String {
	s := Identity(n)
	s.SetLetter(q, l)
	return s
}

// N returns the number of qubits the string acts on.
func (s String) N() int { return s.n }

// Phase returns the power of i in the global prefactor (0..3).
func (s String) Phase() uint8 { return s.phase }

// PhaseCoeff returns the complex value i^Phase.
func (s String) PhaseCoeff() complex128 { return phaseCoeff(s.phase) }

func phaseCoeff(p uint8) complex128 {
	switch p & 3 {
	case 0:
		return 1
	case 1:
		return complex(0, 1)
	case 2:
		return -1
	default:
		return complex(0, -1)
	}
}

// yCount returns the number of Y letters (x=z=1 positions).
func (s String) yCount() int {
	c := 0
	for i := range s.x {
		c += bits.OnesCount64(s.x[i] & s.z[i])
	}
	return c
}

// LetterPhase returns the phase exponent of i relative to the plain
// letter-product form: value(s) = i^LetterPhase · Π letters. A string built
// purely from letters has LetterPhase 0.
func (s String) LetterPhase() uint8 {
	return (s.phase + 4 - uint8(s.yCount()&3)) & 3
}

// LetterCoeff returns i^LetterPhase as a complex number.
func (s String) LetterCoeff() complex128 { return phaseCoeff(s.LetterPhase()) }

// Clone returns an independent deep copy of s.
func (s String) Clone() String {
	c := String{n: s.n, phase: s.phase, x: make([]uint64, len(s.x)), z: make([]uint64, len(s.z))}
	copy(c.x, s.x)
	copy(c.z, s.z)
	return c
}

// Letter reports the Pauli letter acting on qubit q, ignoring phase.
func (s String) Letter(q int) Letter {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("pauli: qubit %d out of range [0,%d)", q, s.n))
	}
	w, b := q/64, uint(q%64)
	xb := s.x[w]>>b&1 == 1
	zb := s.z[w]>>b&1 == 1
	switch {
	case xb && zb:
		return Y
	case xb:
		return X
	case zb:
		return Z
	}
	return I
}

// SetLetter overwrites the letter on qubit q in place, adjusting the global
// phase so that the represented operator carries the standard letter (e.g.
// setting Y stores x=z=1 and bumps the phase by i). Any previous letter on q
// is discarded, including its Y-phase contribution.
func (s *String) SetLetter(q int, l Letter) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("pauli: qubit %d out of range [0,%d)", q, s.n))
	}
	if s.Letter(q) == Y {
		s.phase = (s.phase + 3) & 3 // undo previous Y phase
	}
	w, b := q/64, uint(q%64)
	s.x[w] &^= 1 << b
	s.z[w] &^= 1 << b
	switch l {
	case X:
		s.x[w] |= 1 << b
	case Z:
		s.z[w] |= 1 << b
	case Y:
		s.x[w] |= 1 << b
		s.z[w] |= 1 << b
		s.phase = (s.phase + 1) & 3
	}
}

// Weight returns the number of non-identity letters in the string.
func (s String) Weight() int {
	w := 0
	for i := range s.x {
		w += bits.OnesCount64(s.x[i] | s.z[i])
	}
	return w
}

// IsIdentity reports whether the string has no non-identity letters
// (the phase may still be nontrivial).
func (s String) IsIdentity() bool {
	for i := range s.x {
		if s.x[i]|s.z[i] != 0 {
			return false
		}
	}
	return true
}

// Support returns the sorted list of qubits with non-identity letters.
// SupportAppend is the allocation-free variant.
func (s String) Support() []int {
	return s.SupportAppend(nil)
}

// Mul returns the product s·t (s applied after t in operator order), with
// exact phase tracking. Panics if the qubit counts differ.
// Reordering X^xa Z^za · X^xb Z^zb → X^(xa^xb) Z^(za^zb) picks up
// (-1)^{za·xb}; squared factors X², Z² are identity with no phase.
// MulInto and MulAssign are the allocation-free variants.
func (s String) Mul(t String) String {
	var r String
	s.MulInto(&r, t)
	return r
}

// Commutes reports whether s and t commute as operators. Two Pauli strings
// either commute or anticommute; they anticommute iff the symplectic form
// Σ (x_s·z_t + z_s·x_t) is odd.
func (s String) Commutes(t String) bool {
	if s.n != t.n {
		panic(fmt.Sprintf("pauli: size mismatch %d vs %d", s.n, t.n))
	}
	sym := 0
	for i := range s.x {
		sym += bits.OnesCount64(s.x[i]&t.z[i]) + bits.OnesCount64(s.z[i]&t.x[i])
	}
	return sym%2 == 0
}

// Anticommutes reports whether s and t anticommute.
func (s String) Anticommutes(t String) bool { return !s.Commutes(t) }

// EqualUpToPhase reports whether s and t have the same letters on every
// qubit, ignoring the global phase.
func (s String) EqualUpToPhase(t String) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.x {
		if s.x[i] != t.x[i] || s.z[i] != t.z[i] {
			return false
		}
	}
	return true
}

// SameFlips reports whether s and t flip the same qubits of a basis
// state: their X parts (the qubits holding X or Y) agree on every word.
func (s String) SameFlips(t String) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.x {
		if s.x[i] != t.x[i] {
			return false
		}
	}
	return true
}

// Equal reports whether s and t are identical operators including phase.
func (s String) Equal(t String) bool {
	return s.EqualUpToPhase(t) && s.phase == t.phase
}

// Key returns a compact map key identifying the letters of the string
// (phase excluded). Strings on different qubit counts have distinct keys.
func (s String) Key() string {
	var b strings.Builder
	b.Grow(len(s.x)*16 + 4)
	b.WriteByte(byte(s.n))
	b.WriteByte(byte(s.n >> 8))
	for i := range s.x {
		for k := 0; k < 8; k++ {
			b.WriteByte(byte(s.x[i] >> (8 * k)))
		}
		for k := 0; k < 8; k++ {
			b.WriteByte(byte(s.z[i] >> (8 * k)))
		}
	}
	return b.String()
}

// String renders the string in N-length form, qubit N-1 first (leftmost),
// matching the paper's convention, with a phase prefix when nontrivial.
// The prefix reflects LetterPhase so that prefix·letters equals the value.
func (s String) String() string {
	var buf [64]byte // up to 60 qubits render without a second allocation
	return string(s.AppendTo(buf[:0]))
}

// phasePrefixes is the String prefix for each LetterPhase.
var phasePrefixes = [4]string{"", "i·", "-", "-i·"}

// AppendTo appends the String form of s to b and returns the extended
// buffer, growing it at most once.
func (s String) AppendTo(b []byte) []byte {
	prefix := phasePrefixes[s.LetterPhase()]
	b = slices.Grow(b, len(prefix)+s.n)
	b = append(b, prefix...)
	// The letter of qubit q is "IXZY"[x_q | z_q<<1].
	start := len(b)
	b = b[:start+s.n]
	out := b[start:]
	for i := range out {
		q := s.n - 1 - i
		w, bit := q>>6, uint(q&63)
		out[i] = "IXZY"[s.x[w]>>bit&1|s.z[w]>>bit&1<<1]
	}
	return b
}

// Compact renders the string in compact form (identities omitted, each
// letter subscripted with its qubit), e.g. "X3Y2Z0". The identity renders
// as "I".
func (s String) Compact() string {
	var b strings.Builder
	switch s.LetterPhase() {
	case 1:
		b.WriteString("i·")
	case 2:
		b.WriteString("-")
	case 3:
		b.WriteString("-i·")
	}
	any := false
	for q := s.n - 1; q >= 0; q-- {
		if l := s.Letter(q); l != I {
			fmt.Fprintf(&b, "%s%d", l, q)
			any = true
		}
	}
	if !any {
		b.WriteString("I")
	}
	return b.String()
}

// Parse reads an N-length string such as "XYIZ" (qubit 0 rightmost).
// An optional prefix of "-", "i", or "-i" (optionally followed by "·" or
// "*") sets the phase.
func Parse(text string) (String, error) {
	rest := text
	var phase uint8
	switch {
	case strings.HasPrefix(rest, "-i"):
		phase, rest = 3, rest[2:]
	case strings.HasPrefix(rest, "i"):
		phase, rest = 1, rest[1:]
	case strings.HasPrefix(rest, "-"):
		phase, rest = 2, rest[1:]
	}
	rest = strings.TrimPrefix(rest, "·")
	rest = strings.TrimPrefix(rest, "*")
	n := len(rest)
	s := Identity(n)
	for i, c := range rest {
		q := n - 1 - i
		switch c {
		case 'I':
			// identity: nothing to set
		case 'X':
			s.SetLetter(q, X)
		case 'Y':
			s.SetLetter(q, Y)
		case 'Z':
			s.SetLetter(q, Z)
		default:
			return String{}, fmt.Errorf("pauli: invalid letter %q in %q", c, text)
		}
	}
	s.phase = (s.phase + phase) & 3
	return s, nil
}

// MustParse is Parse that panics on error; intended for tests and literals.
func MustParse(text string) String {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

// ActsOnZeroAs reports how the letter on qubit q transforms |0⟩:
// both I and Z fix |0⟩ (eigenvalue +1 or −1 has no effect on which basis
// state results), X and Y flip it. Used by vacuum-preservation checks.
func (s String) ActsOnZeroAs(q int) byte {
	switch s.Letter(q) {
	case I, Z:
		return 0 // diagonal on |0⟩
	default:
		return 1 // flips |0⟩
	}
}
