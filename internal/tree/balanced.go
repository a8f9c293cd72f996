package tree

// Balanced builds the balanced ternary tree with N internal nodes used by
// the BTT baseline (Jiang et al.): internal nodes are placed breadth-first
// so every level is filled before the next begins, then 2N+1 leaves are
// appended to complete the tree. Internal node j (BFS order) is qubit j;
// leaf IDs are assigned 0..2N in depth-first (X,Y,Z) order.
func Balanced(n int) *Tree {
	if n <= 0 {
		panic("tree: Balanced requires n >= 1")
	}
	internal := make([]*Node, n)
	for i := range internal {
		internal[i] = &Node{ID: 2*n + 1 + i, Qubit: i}
	}
	// Breadth-first attachment: node j's children are internal nodes
	// 3j+1, 3j+2, 3j+3 when those exist.
	nextChild := 1
	for j := 0; j < n; j++ {
		for b := 0; b < 3; b++ {
			if nextChild < n {
				c := internal[nextChild]
				internal[j].Child[b] = c
				c.Parent = internal[j]
				c.PBranch = Branch(b)
				nextChild++
			}
		}
	}
	t := &Tree{N: n, Root: internal[0], Leaves: make([]*Node, 0, 2*n+1)}
	// Fill the open slots with leaves in depth-first order so that leaf
	// IDs increase left-to-right.
	id := 0
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
