package mapping

import "repro/internal/pauli"

// FenwickTree is the partial-sum tree underlying the Bravyi–Kitaev
// transformation, built with the recursive construction of Seeley,
// Richard & Love for arbitrary n (not just powers of two).
type FenwickTree struct {
	n      int
	parent []int   // parent[i] = parent node index, -1 for the root
	child  [][]int // direct children, each smaller than the node
}

// NewFenwickTree constructs the Fenwick tree on n nodes: FENWICK(0, n-1)
// attaches mid = ⌊(l+r)/2⌋ as a child of r, then recurses into [l, mid]
// and [mid+1, r].
func NewFenwickTree(n int) *FenwickTree {
	f := &FenwickTree{n: n, parent: make([]int, n), child: make([][]int, n)}
	for i := range f.parent {
		f.parent[i] = -1
	}
	var build func(l, r int)
	build = func(l, r int) {
		if l >= r {
			return
		}
		mid := (l + r) / 2
		f.parent[mid] = r
		f.child[r] = append(f.child[r], mid)
		build(l, mid)
		build(mid+1, r)
	}
	build(0, n-1)
	return f
}

// UpdateSet returns the ancestors of j: the qubits whose stored partial
// sums include mode j (all must flip when mode j's occupation flips).
func (f *FenwickTree) UpdateSet(j int) []int {
	var out []int
	for p := f.parent[j]; p != -1; p = f.parent[p] {
		out = append(out, p)
	}
	return out
}

// RemainderSet returns C(j): children of ancestors of j with index < j.
// Together with F(j) it forms the parity set P(j) = F(j) ∪ C(j), the qubits
// storing the parity of modes 0 … j−1.
func (f *FenwickTree) RemainderSet(j int) []int {
	var out []int
	for p := f.parent[j]; p != -1; p = f.parent[p] {
		for _, c := range f.child[p] {
			if c < j {
				out = append(out, c)
			}
		}
	}
	return out
}

// ParitySet returns P(j) = F(j) ∪ C(j).
func (f *FenwickTree) ParitySet(j int) []int {
	out := append([]int{}, f.child[j]...)
	return append(out, f.RemainderSet(j)...)
}

// BravyiKitaev returns the Bravyi–Kitaev transformation on n modes:
//
//	M_{2j}   = X_{U(j)} · X_j · Z_{P(j)}
//	M_{2j+1} = X_{U(j)} · Y_j · Z_{C(j)}
//
// with U, P, C the Fenwick-tree update, parity, and remainder sets.
func BravyiKitaev(n int) *Mapping {
	f := NewFenwickTree(n)
	mj := make([]pauli.String, 2*n)
	for j := 0; j < n; j++ {
		even := pauli.Identity(n)
		odd := pauli.Identity(n)
		for _, u := range f.UpdateSet(j) {
			even.SetLetter(u, pauli.X)
			odd.SetLetter(u, pauli.X)
		}
		even.SetLetter(j, pauli.X)
		odd.SetLetter(j, pauli.Y)
		for _, p := range f.ParitySet(j) {
			even.SetLetter(p, pauli.Z)
		}
		for _, c := range f.RemainderSet(j) {
			odd.SetLetter(c, pauli.Z)
		}
		mj[2*j] = even
		mj[2*j+1] = odd
	}
	return &Mapping{Name: "BK", Modes: n, Majoranas: mj}
}
