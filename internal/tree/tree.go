// Package tree implements the complete ternary trees at the heart of
// ternary-tree fermion-to-qubit mappings (§III-A of the paper).
//
// A complete ternary tree with N internal nodes has 2N+1 leaves. Internal
// node In_j corresponds to qubit q_j; each root-to-leaf path spells out a
// Pauli string: at each internal node the path contributes X, Y, or Z on
// that node's qubit depending on whether it descends into the left (X),
// middle (Y), or right (Z) child, and identity on qubits not on the path.
//
// The package also provides the vacuum-preserving leaf pairing used by both
// the balanced baseline and HATT: the Z-descendant of the X child of any
// internal node pairs with the Z-descendant of its Y child, giving the two
// strings an (X,Y) pair on that qubit and |0⟩-equivalent letters elsewhere.
package tree

import (
	"fmt"

	"repro/internal/pauli"
)

// Branch labels the three child positions of an internal node.
type Branch int

// Child positions: the X (left), Y (middle), and Z (right) branches.
const (
	BX Branch = iota
	BY
	BZ
)

// Letter returns the Pauli letter contributed by descending this branch.
func (b Branch) Letter() pauli.Letter {
	switch b {
	case BX:
		return pauli.X
	case BY:
		return pauli.Y
	default:
		return pauli.Z
	}
}

// Node is a ternary-tree node. Leaves have no children; internal nodes have
// exactly three (the tree is complete). ID conventions follow the paper's
// Algorithm 1: leaves are O_0 … O_2N, internal nodes O_{2N+1} … O_{3N}.
// Qubit is meaningful only for internal nodes.
type Node struct {
	ID     int
	Qubit  int
	Parent *Node
	// PBranch records which branch of Parent this node hangs from.
	PBranch Branch
	Child   [3]*Node // nil for leaves
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Child[0] == nil }

// SetChildren attaches x, y, z as the children of n and fixes their parent
// links.
func (n *Node) SetChildren(x, y, z *Node) {
	n.Child[BX], n.Child[BY], n.Child[BZ] = x, y, z
	for b, c := range n.Child {
		if c == nil {
			panic("tree: nil child in SetChildren")
		}
		c.Parent = n
		c.PBranch = Branch(b)
	}
}

// DescZ returns the Z-descendant: the leaf reached by repeatedly taking the
// Z branch (the node itself if it is a leaf).
func (n *Node) DescZ() *Node {
	for !n.IsLeaf() {
		n = n.Child[BZ]
	}
	return n
}

// Tree is a complete ternary tree for an N-mode system: N internal nodes
// (qubits) and 2N+1 leaves.
type Tree struct {
	N      int
	Root   *Node
	Leaves []*Node // indexed by leaf ID 0..2N
}

// Validate checks structural invariants: completeness, leaf count, parent
// links, and qubit numbering covering 0..N-1 exactly once.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("tree: nil root")
	}
	if len(t.Leaves) != 2*t.N+1 {
		return fmt.Errorf("tree: %d leaves, want %d", len(t.Leaves), 2*t.N+1)
	}
	seenQubit := make(map[int]bool)
	leaves := 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.IsLeaf() {
			leaves++
			for b := 1; b < 3; b++ {
				if n.Child[b] != nil {
					return fmt.Errorf("tree: partial children on node %d", n.ID)
				}
			}
			return nil
		}
		if n.Qubit < 0 || n.Qubit >= t.N {
			return fmt.Errorf("tree: qubit %d out of range on node %d", n.Qubit, n.ID)
		}
		if seenQubit[n.Qubit] {
			return fmt.Errorf("tree: duplicate qubit %d", n.Qubit)
		}
		seenQubit[n.Qubit] = true
		for b, c := range n.Child {
			if c == nil {
				return fmt.Errorf("tree: internal node %d missing child %d", n.ID, b)
			}
			if c.Parent != n || c.PBranch != Branch(b) {
				return fmt.Errorf("tree: bad parent link under node %d", n.ID)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root); err != nil {
		return err
	}
	if leaves != 2*t.N+1 {
		return fmt.Errorf("tree: walked %d leaves, want %d", leaves, 2*t.N+1)
	}
	if len(seenQubit) != t.N {
		return fmt.Errorf("tree: %d qubits, want %d", len(seenQubit), t.N)
	}
	return nil
}

// LeafString extracts the Pauli string for one leaf: the letters contributed
// by the internal nodes along the root-to-leaf path (identity elsewhere).
func (t *Tree) LeafString(leaf *Node) pauli.String {
	s := pauli.Identity(t.N)
	for n := leaf; n.Parent != nil; n = n.Parent {
		s.SetLetter(n.Parent.Qubit, n.PBranch.Letter())
	}
	return s
}

// AllStrings extracts the 2N+1 Pauli strings indexed by leaf ID.
func (t *Tree) AllStrings() []pauli.String {
	out := make([]pauli.String, len(t.Leaves))
	for i, l := range t.Leaves {
		out[i] = t.LeafString(l)
	}
	return out
}

// Depth returns the maximum number of internal nodes on any root-to-leaf
// path (equals the maximum Pauli weight of an extracted string).
func (t *Tree) Depth() int {
	var depth func(n *Node) int
	depth = func(n *Node) int {
		if n.IsLeaf() {
			return 0
		}
		d := 0
		for _, c := range n.Child {
			if cd := depth(c); cd > d {
				d = cd
			}
		}
		return d + 1
	}
	return depth(t.Root)
}

// MajoranaAssignment returns, for each Majorana index 0..2N-1, the leaf ID
// whose string realizes it, following the canonical pairing: each
// (X-side, Y-side) pair becomes (M_2l, M_2l+1) in discovery order. The
// discarded leaf is unassigned. The X-side (even) member of each pair is
// the one whose letter on the pair qubit is X.
func (t *Tree) MajoranaAssignment() []int {
	assign := make([]int, 2*t.N)
	next := 0
	var visit func(n *Node) *Node
	visit = func(n *Node) *Node {
		if n.IsLeaf() {
			return n
		}
		lx := visit(n.Child[BX])
		ly := visit(n.Child[BY])
		lz := visit(n.Child[BZ])
		assign[next] = lx.ID
		assign[next+1] = ly.ID
		next += 2
		return lz
	}
	visit(t.Root)
	if next != 2*t.N {
		panic("tree: pairing did not cover all leaves")
	}
	return assign
}
