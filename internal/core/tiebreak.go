package core

import "math/bits"

// TieBreak selects the secondary objective used when several candidate
// merges settle the same Pauli weight on the current qubit. The paper's
// algorithm leaves ties unspecified; the default reproduces
// first-in-enumeration-order. The alternatives are the ablation axes
// DESIGN.md calls out.
type TieBreak int

const (
	// TieFirst keeps the first minimal candidate in enumeration order
	// (the behavior of Build).
	TieFirst TieBreak = iota
	// TieDepth prefers the merge whose new subtree is shallowest, pushing
	// toward balanced trees (lower maximum string weight, hence shallower
	// circuits) among equal-weight choices.
	TieDepth
	// TieSupport prefers the merge whose parent participates in the fewest
	// remaining Hamiltonian terms, preserving flexibility for future
	// cancellation.
	TieSupport
)

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// parentSupport counts the terms the merged parent would still touch.
func parentSupport(bx, by, bz termBits) int {
	s := 0
	for i := range bx {
		s += bits.OnesCount64(bx[i] ^ by[i] ^ bz[i])
	}
	return s
}
