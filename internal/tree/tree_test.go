package tree

import (
	"math/rand"
	"testing"

	"repro/internal/pauli"
)

// chain builds the degenerate JW-like tree: internal node i's Z child is
// internal node i+1; X and Y children are leaves. Leaf IDs in DFS order.
func chain(n int) *Tree {
	t := &Tree{N: n}
	internal := make([]*Node, n)
	for i := range internal {
		internal[i] = &Node{ID: 2*n + 1 + i, Qubit: i}
	}
	for i := 0; i+1 < n; i++ {
		internal[i].Child[BZ] = internal[i+1]
		internal[i+1].Parent = internal[i]
		internal[i+1].PBranch = BZ
	}
	t.Root = internal[0]
	id := 0
	t.Leaves = make([]*Node, 0, 2*n+1)
	var attach func(nd *Node)
	attach = func(nd *Node) {
		for b := 0; b < 3; b++ {
			if nd.Child[b] == nil {
				leaf := &Node{ID: id, Parent: nd, PBranch: Branch(b)}
				id++
				nd.Child[b] = leaf
				t.Leaves = append(t.Leaves, leaf)
			} else {
				attach(nd.Child[b])
			}
		}
	}
	attach(t.Root)
	return t
}

func TestBalancedValidates(t *testing.T) {
	for n := 1; n <= 40; n++ {
		tr := Balanced(n)
		if err := tr.Validate(); err != nil {
			t.Fatalf("Balanced(%d): %v", n, err)
		}
	}
}

func TestChainValidates(t *testing.T) {
	for n := 1; n <= 10; n++ {
		if err := chain(n).Validate(); err != nil {
			t.Fatalf("chain(%d): %v", n, err)
		}
	}
}

func TestLeafStringsAnticommute(t *testing.T) {
	// Any 2N of the 2N+1 extracted strings must pairwise anticommute —
	// in fact all 2N+1 pairwise anticommute.
	for _, tr := range []*Tree{Balanced(4), chain(4), Balanced(7)} {
		ss := tr.AllStrings()
		for i := range ss {
			for j := i + 1; j < len(ss); j++ {
				if !ss[i].Anticommutes(ss[j]) {
					t.Fatalf("strings %d (%s) and %d (%s) commute", i, ss[i], j, ss[j])
				}
			}
		}
	}
}

func TestLeafStringsDistinct(t *testing.T) {
	tr := Balanced(6)
	seen := map[string]bool{}
	for _, s := range tr.AllStrings() {
		k := s.Key()
		if seen[k] {
			t.Fatalf("duplicate string %s", s)
		}
		seen[k] = true
	}
}

func TestBalancedDepthIsLog(t *testing.T) {
	// Balanced tree weight per string ≈ ceil(log3(2N+1)).
	cases := map[int]int{1: 1, 4: 2, 13: 3, 40: 4}
	for n, want := range cases {
		if d := Balanced(n).Depth(); d != want {
			t.Errorf("Balanced(%d).Depth() = %d, want %d", n, d, want)
		}
	}
	// Chain tree depth is N.
	if d := chain(5).Depth(); d != 5 {
		t.Errorf("chain(5).Depth() = %d, want 5", d)
	}
}

func TestChainReproducesJordanWigner(t *testing.T) {
	// The chain tree with qubit i at depth i reproduces JW strings:
	// X child of node i = X_i Z_{i-1} … Z_0 pattern (with our convention
	// the Z's sit on the ancestors' qubits).
	tr := chain(2)
	ss := tr.AllStrings()
	// Leaf 0 = X child of root: X0. Leaf 1 = Y child: Y0.
	if ss[0].String() != "IX" || ss[1].String() != "IY" {
		t.Errorf("leaves 0,1 = %s,%s; want IX,IY", ss[0], ss[1])
	}
	// Leaves 2,3 hang off internal node 1 (reached by Z from root): XZ, YZ.
	if ss[2].String() != "XZ" || ss[3].String() != "YZ" {
		t.Errorf("leaves 2,3 = %s,%s; want XZ,YZ", ss[2], ss[3])
	}
	// Leaf 4 = ZZ, the discarded all-Z string.
	if ss[4].String() != "ZZ" {
		t.Errorf("leaf 4 = %s; want ZZ", ss[4])
	}
}

func TestPaperFigure3Example(t *testing.T) {
	// Build the paper's Figure 3 tree: root In2; In2.X = In3(leaf children),
	// In2.Y = In0, In2.Z = leaf; In0.X = leaf, In0.Y = leaf... The paper's
	// highlighted path gives I3Y2X1Z0: root In2 —Y→ In0 —Z→ In1 —X→ leaf.
	n := 4
	in := make([]*Node, n)
	for i := range in {
		in[i] = &Node{ID: 2*n + 1 + i, Qubit: i}
	}
	// Wire internal skeleton: In2 root, In2.X=In3, In2.Y=In0, In0.Z=In1.
	in[2].Child[BX] = in[3]
	in[3].Parent, in[3].PBranch = in[2], BX
	in[2].Child[BY] = in[0]
	in[0].Parent, in[0].PBranch = in[2], BY
	in[0].Child[BZ] = in[1]
	in[1].Parent, in[1].PBranch = in[0], BZ
	tr := &Tree{N: n, Root: in[2]}
	id := 0
	var attach func(nd *Node)
	attach = func(nd *Node) {
		for b := 0; b < 3; b++ {
			if nd.Child[b] == nil {
				leaf := &Node{ID: id, Parent: nd, PBranch: Branch(b)}
				id++
				nd.Child[b] = leaf
				tr.Leaves = append(tr.Leaves, leaf)
			} else {
				attach(nd.Child[b])
			}
		}
	}
	attach(tr.Root)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Find the leaf on path In2 -Y-> In0 -Z-> In1 -X-> leaf.
	leaf := in[1].Child[BX]
	s := tr.LeafString(leaf)
	if s.Compact() != "Y2X1Z0" {
		t.Errorf("path string = %s, want Y2X1Z0 (I3Y2X1Z0)", s.Compact())
	}
	if s.Letter(3) != pauli.I {
		t.Errorf("qubit 3 should be identity")
	}
}

// pairing maps each leaf ID to its partner under the vacuum-preserving
// assignment, plus the discarded leaf.
type pairing struct {
	// partnerOf[id] is the paired leaf ID, or -1 for the discarded leaf.
	partnerOf []int
	// discarded is the ID of the unpaired leaf, the root's Z-descendant.
	discarded int
}

// canonicalPairing is the reference pairing MajoranaAssignment is held
// to. It pairs the leaves of any complete ternary tree so that every
// pair shares an (X,Y) letter pair on one qubit and acts
// |0⟩-equivalently elsewhere: recursively, the Z-descendant of a node's
// X child pairs with the Z-descendant of its Y child; the Z child's
// Z-descendant propagates upward and the root's Z-descendant is
// discarded.
func canonicalPairing(t *Tree) pairing {
	p := pairing{partnerOf: make([]int, len(t.Leaves))}
	for i := range p.partnerOf {
		p.partnerOf[i] = -1
	}
	var visit func(n *Node) *Node // returns the subtree's unpaired Z-descendant leaf
	visit = func(n *Node) *Node {
		if n.IsLeaf() {
			return n
		}
		lx := visit(n.Child[BX])
		ly := visit(n.Child[BY])
		lz := visit(n.Child[BZ])
		p.partnerOf[lx.ID] = ly.ID
		p.partnerOf[ly.ID] = lx.ID
		return lz
	}
	p.discarded = visit(t.Root).ID
	return p
}

func TestCanonicalPairingProperties(t *testing.T) {
	for _, tr := range []*Tree{Balanced(3), Balanced(8), chain(5)} {
		p := canonicalPairing(tr)
		ss := tr.AllStrings()
		// The discarded leaf is the root's Z-descendant.
		if p.discarded != tr.Root.DescZ().ID {
			t.Fatalf("discarded = %d, want root descZ %d", p.discarded, tr.Root.DescZ().ID)
		}
		paired := 0
		for id, partner := range p.partnerOf {
			if id == p.discarded {
				if partner != -1 {
					t.Fatalf("discarded leaf has partner")
				}
				continue
			}
			if partner < 0 || p.partnerOf[partner] != id {
				t.Fatalf("pairing not symmetric at %d", id)
			}
			paired++
			if partner < id {
				continue // check each pair once
			}
			a, b := ss[id], ss[partner]
			// Exactly one qubit with (X,Y) or (Y,X); all others act equally
			// on |0⟩.
			xy := 0
			for q := 0; q < tr.N; q++ {
				la, lb := a.Letter(q), b.Letter(q)
				if (la == pauli.X && lb == pauli.Y) || (la == pauli.Y && lb == pauli.X) {
					xy++
					continue
				}
				if a.ActsOnZeroAs(q) != b.ActsOnZeroAs(q) {
					t.Fatalf("pair (%s,%s) differ on |0⟩ at qubit %d", a, b, q)
				}
			}
			if xy != 1 {
				t.Fatalf("pair (%s,%s) has %d X/Y pair qubits, want 1", a, b, xy)
			}
		}
		if paired != 2*tr.N {
			t.Fatalf("paired %d leaves, want %d", paired, 2*tr.N)
		}
	}
}

func TestMajoranaAssignment(t *testing.T) {
	tr := Balanced(5)
	p := canonicalPairing(tr)
	assign := tr.MajoranaAssignment()
	if len(assign) != 10 {
		t.Fatalf("assignment length %d", len(assign))
	}
	ss := tr.AllStrings()
	seen := map[int]bool{}
	for l := 0; l < tr.N; l++ {
		even, odd := assign[2*l], assign[2*l+1]
		if seen[even] || seen[odd] {
			t.Fatalf("leaf reused in assignment")
		}
		seen[even], seen[odd] = true, true
		if p.partnerOf[even] != odd {
			t.Fatalf("assignment pairs %d,%d not partners", even, odd)
		}
		// The even string must carry X and the odd string Y on their shared
		// pair qubit.
		a, b := ss[even], ss[odd]
		found := false
		for q := 0; q < tr.N; q++ {
			if a.Letter(q) == pauli.X && b.Letter(q) == pauli.Y {
				found = true
			}
			if a.Letter(q) == pauli.Y && b.Letter(q) == pauli.X {
				t.Fatalf("pair (M%d,M%d) has (Y,X) order", 2*l, 2*l+1)
			}
		}
		if !found {
			t.Fatalf("pair (M%d,M%d) missing (X,Y) qubit", 2*l, 2*l+1)
		}
	}
	if seen[p.discarded] {
		t.Fatalf("discarded leaf assigned")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := Balanced(3)
	// Break a branch link: the leaf claims a branch position its parent
	// disagrees with.
	tr.Leaves[0].PBranch = (tr.Leaves[0].PBranch + 1) % 3
	if err := tr.Validate(); err == nil {
		t.Error("Validate missed corrupted branch link")
	}
	// Duplicate qubit.
	tr2 := Balanced(3)
	tr2.Root.Child[BX].Qubit = tr2.Root.Qubit
	if !tr2.Root.Child[BX].IsLeaf() {
		if err := tr2.Validate(); err == nil {
			t.Error("Validate missed duplicate qubit")
		}
	}
}

func TestDescZ(t *testing.T) {
	tr := Balanced(4)
	d := tr.Root.DescZ()
	if !d.IsLeaf() {
		t.Fatal("DescZ returned non-leaf")
	}
	// Walking Z branches manually must agree.
	n := tr.Root
	for !n.IsLeaf() {
		n = n.Child[BZ]
	}
	if n != d {
		t.Fatal("DescZ mismatch")
	}
	// A leaf is its own Z-descendant.
	if tr.Leaves[0].DescZ() != tr.Leaves[0] {
		t.Fatal("leaf DescZ should be itself")
	}
}

func TestRandomTreesAnticommute(t *testing.T) {
	// Property: random complete ternary trees always yield pairwise
	// anticommuting strings.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(8)
		tr := randomTree(r, n)
		if err := tr.Validate(); err != nil {
			t.Fatalf("random tree invalid: %v", err)
		}
		ss := tr.AllStrings()
		for i := range ss {
			for j := i + 1; j < len(ss); j++ {
				if !ss[i].Anticommutes(ss[j]) {
					t.Fatalf("random tree strings commute: %s vs %s", ss[i], ss[j])
				}
			}
		}
	}
}

// randomTree builds a random complete ternary tree by repeatedly merging
// three random roots under a new internal node (mirroring HATT's bottom-up
// construction with random selections).
func randomTree(r *rand.Rand, n int) *Tree {
	t := &Tree{N: n, Leaves: make([]*Node, 2*n+1)}
	pool := make([]*Node, 2*n+1)
	for i := range pool {
		leaf := &Node{ID: i}
		pool[i] = leaf
		t.Leaves[i] = leaf
	}
	for i := 0; i < n; i++ {
		// Pick three distinct random nodes from the pool.
		r.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		parent := &Node{ID: 2*n + 1 + i, Qubit: i}
		parent.SetChildren(pool[0], pool[1], pool[2])
		pool = append(pool[3:], parent)
	}
	t.Root = pool[0]
	return t
}
