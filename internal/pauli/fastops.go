package pauli

import (
	"fmt"
	"math/bits"
)

// This file holds the allocation-free counterparts of the String algebra:
// in-place and destination-buffer products, support iteration into a
// caller-owned slice, word-level mask accessors for simulators, and a
// 128-bit letter fingerprint that replaces the string-building Key() on
// hot map paths. The original allocating API remains and delegates here
// where possible.

// Reset clears s to the identity (phase 0) on its qubit count, keeping
// its buffers. Useful as an accumulator between MulAssign chains.
func (s *String) Reset() {
	for i := range s.x {
		s.x[i] = 0
		s.z[i] = 0
	}
	s.phase = 0
}

// MulAssign sets s ← s·t in place with exact phase tracking, allocating
// nothing. Panics if the qubit counts differ.
//
//hatt:noalloc
func (s *String) MulAssign(t String) {
	if s.n != t.n {
		panic(fmt.Sprintf("pauli: size mismatch %d vs %d", s.n, t.n))
	}
	anti := 0
	for i := range s.x {
		anti += bits.OnesCount64(s.z[i] & t.x[i])
		s.x[i] ^= t.x[i]
		s.z[i] ^= t.z[i]
	}
	s.phase = (s.phase + t.phase + uint8(anti&1)*2) & 3
}

// MulInto writes the product s·t into dst, reusing dst's buffers when they
// are large enough (so a warm dst makes the call allocation-free). dst may
// alias s or t. Panics if the qubit counts of s and t differ.
//
//hatt:noalloc
func (s String) MulInto(dst *String, t String) {
	if s.n != t.n {
		panic(fmt.Sprintf("pauli: size mismatch %d vs %d", s.n, t.n))
	}
	w := len(s.x)
	if cap(dst.x) < w {
		dst.x = make([]uint64, w) //hatt:lint-ignore noalloc cold path: warms dst once, then the branch never retriggers
	} else {
		dst.x = dst.x[:w]
	}
	if cap(dst.z) < w {
		dst.z = make([]uint64, w) //hatt:lint-ignore noalloc cold path: warms dst once, then the branch never retriggers
	} else {
		dst.z = dst.z[:w]
	}
	anti := 0
	for i := 0; i < w; i++ {
		anti += bits.OnesCount64(s.z[i] & t.x[i])
		dst.x[i] = s.x[i] ^ t.x[i]
		dst.z[i] = s.z[i] ^ t.z[i]
	}
	dst.n = s.n
	dst.phase = (s.phase + t.phase + uint8(anti&1)*2) & 3
}

// SupportAppend appends the sorted qubits with non-identity letters to dst
// and returns the extended slice; with a pre-sized dst the call does not
// allocate.
func (s String) SupportAppend(dst []int) []int {
	for w := range s.x {
		m := s.x[w] | s.z[w]
		for m != 0 {
			b := bits.TrailingZeros64(m)
			dst = append(dst, w*64+b)
			m &= m - 1
		}
	}
	return dst
}

// Masks64 returns the symplectic bit masks of a string on at most 64
// qubits: bit q of x is set where the letter is X or Y, bit q of z where
// it is Z or Y. Together with Phase() this determines the full action on
// basis states: value·|b⟩ = i^Phase · (−1)^{popcount(z&b)} · |b ⊕ x⟩.
// Panics for wider strings.
func (s String) Masks64() (x, z uint64) {
	if s.n > 64 {
		panic(fmt.Sprintf("pauli: Masks64 on %d qubits (max 64)", s.n))
	}
	if len(s.x) == 0 {
		return 0, 0
	}
	return s.x[0], s.z[0]
}

// Fingerprint is a compact, comparable identifier of a string's letters
// (phase excluded), usable as a map key with no per-call allocation.
// For strings on at most 64 qubits it is the exact symplectic pair (x, z),
// so it is collision-free among strings of equal qubit count; wider
// strings get a mixed 128-bit hash, and exact-match callers (such as
// Hamiltonian) verify letters on lookup so a collision can never corrupt
// a result. Strings on different qubit counts may share a fingerprint;
// use Key() when cross-count uniqueness matters.
type Fingerprint struct{ Hi, Lo uint64 }

// fpMix is a murmur3-style 64-bit finalizer used to fold wide bitsets
// into the two fingerprint lanes.
func fpMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Fingerprint returns the letter fingerprint of s.
func (s String) Fingerprint() Fingerprint {
	if len(s.x) == 1 {
		return Fingerprint{Hi: s.x[0], Lo: s.z[0]}
	}
	hi := uint64(0x9e3779b97f4a7c15)
	lo := uint64(0xc2b2ae3d27d4eb4f)
	for i := range s.x {
		hi = fpMix(hi ^ s.x[i])
		lo = fpMix(lo ^ s.z[i])
		// Cross-feed the lanes so (x, z) and (z, x) fingerprints differ.
		hi, lo = hi+lo, lo^(hi>>17)
	}
	return Fingerprint{Hi: hi, Lo: lo}
}

// CompareSymplectic is a total order on the letters of equal-length
// strings (phase ignored): it compares the symplectic words from the
// highest qubit down, X bits before Z bits, returning -1, 0, or +1.
// Strings on fewer qubits order first. It is the allocation-free
// replacement for comparing Key() strings.
func (s String) CompareSymplectic(t String) int {
	if s.n != t.n {
		if s.n < t.n {
			return -1
		}
		return 1
	}
	for i := len(s.x) - 1; i >= 0; i-- {
		if s.x[i] != t.x[i] {
			if s.x[i] < t.x[i] {
				return -1
			}
			return 1
		}
		if s.z[i] != t.z[i] {
			if s.z[i] < t.z[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
