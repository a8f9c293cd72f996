// Package core implements the paper's primary contribution: the
// Hamiltonian-Adaptive Ternary Tree (HATT) construction of fermion-to-qubit
// mappings, in both the unoptimized form (Algorithm 1, O(N⁴), no vacuum
// guarantee) and the optimized form (Algorithms 2+3: vacuum-state
// preservation through operator pairing plus O(1) Z-descendant caches,
// O(N³) total). It also provides the Fermihedral stand-ins used as the
// optimal/approximate baselines: an exhaustive branch-and-bound search over
// the ternary-tree mapping space and a simulated-annealing local search.
package core

import (
	"context"
	"math/bits"

	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/parallel"
	"repro/internal/tree"
)

// termBits is a bitset over Hamiltonian terms: bit t set means "this node's
// Pauli string participates in term t".
type termBits []uint64

func newTermBits(words int) termBits { return make(termBits, words) }

func (b termBits) set(t int) { b[t/64] |= 1 << uint(t%64) }

// scoreFanoutCutoff is the candidate count below which the search
// methods keep scoring sequential: dispatching a pool over a few dozen
// settledWeight calls costs more than the calls themselves. Above it,
// the per-chunk work dwarfs the dispatch.
const scoreFanoutCutoff = 256

// scoreChunks runs score over contiguous chunks of [0, n) candidates on
// up to workers goroutines, sequentially below scoreFanoutCutoff. score
// must only read shared search state and write its own indices.
func scoreChunks(ctx context.Context, n, workers int, score func(lo, hi int)) error {
	if n < scoreFanoutCutoff {
		workers = 1 // dispatch would cost more than the scoring
	}
	return parallel.ForEachChunk(ctx, n, max(1, workers), func(lo, hi int) error {
		score(lo, hi)
		return nil
	})
}

// settledWeight computes the Pauli weight contributed on one qubit when
// nodes with term-membership bitsets bx, by, bz become its X, Y, Z
// children: a term's operator on that qubit is non-identity iff exactly one
// or two of the three nodes appear in it (all three multiply to X·Y·Z ∝ I).
func settledWeight(bx, by, bz termBits) int {
	w := 0
	for i := range bx {
		union := bx[i] | by[i] | bz[i]
		all := bx[i] & by[i] & bz[i]
		w += bits.OnesCount64(union &^ all)
	}
	return w
}

// symDiffWeight is the pairwise lower bound feeding the unopt triple-loop
// prune: |aΔb| = |a∪b| − |a∩b| ≤ |a∪b∪c| − |a∩b∩c| = settledWeight(a,b,c)
// for every third set c, since the union only grows and the intersection
// only shrinks.
func symDiffWeight(a, b termBits) int {
	w := 0
	for i := range a {
		w += bits.OnesCount64(a[i] ^ b[i])
	}
	return w
}

// problem is the preprocessed optimization instance shared by every
// construction in this package: one bitset per Majorana leaf recording the
// Hamiltonian terms that contain it.
type problem struct {
	n      int // modes
	nTerms int
	words  int
	// leafBits[id] for id in 0..2n (leaf 2n exists but never appears in a
	// term: Majorana indices are 0..2n-1).
	leafBits []termBits
}

// newProblem preprocesses a Majorana Hamiltonian (Algorithm 1 line 1):
// identity monomials are dropped; every remaining monomial becomes one term
// bit on each of its Majorana indices.
func newProblem(mh *fermion.MajoranaHamiltonian) *problem {
	n := mh.Modes
	sets := mh.IndexSets()
	p := &problem{n: n, nTerms: len(sets), words: (len(sets) + 63) / 64}
	if p.words == 0 {
		p.words = 1
	}
	p.leafBits = make([]termBits, 2*n+1)
	for id := range p.leafBits {
		p.leafBits[id] = newTermBits(p.words)
	}
	for t, idx := range sets {
		for _, m := range idx {
			p.leafBits[m].set(t)
		}
	}
	return p
}

// EvaluateTree returns the Pauli weight the qubit Hamiltonian will have
// under the mapping defined by t with leaf-ID-to-Majorana-index assignment
// (leaf i realizes M_i), computed purely combinatorially: for each internal
// node, count the terms in which exactly one or two of its children's
// subtree parities are odd.
func EvaluateTree(mh *fermion.MajoranaHamiltonian, t *tree.Tree) int {
	p := newProblem(mh)
	return p.evaluateTree(t)
}

func (p *problem) evaluateTree(t *tree.Tree) int {
	total := 0
	var walk func(n *tree.Node) termBits
	walk = func(n *tree.Node) termBits {
		if n.IsLeaf() {
			return p.leafBits[n.ID]
		}
		bx := walk(n.Child[tree.BX])
		by := walk(n.Child[tree.BY])
		bz := walk(n.Child[tree.BZ])
		total += settledWeight(bx, by, bz)
		out := newTermBits(p.words)
		for i := range out {
			out[i] = bx[i] ^ by[i] ^ bz[i]
		}
		return out
	}
	walk(t.Root)
	return total
}

// builder holds the bottom-up construction state shared by every
// search in this package: Algorithm 1, Algorithm 2+3, and each entry of
// a beam. It records merges and assembles the tree only in finish, so a
// beam entry is a clone.
type builder struct {
	p *problem
	// bits maps node ID to its term bitset (active and historical). A
	// bitset is never mutated once stored, so clones share them.
	bits []termBits
	u    []int // active node IDs, ascending
	// Z-descendant caches (Algorithm 3).
	mdown []int // node ID -> descZ leaf ID
	mup   []int // leaf ID -> its ancestor in U
	// predicted accumulates the settled weight over all steps; it equals
	// the Pauli weight of the final qubit Hamiltonian.
	predicted int
	// log records the merge triples in step order.
	log [][3]int
}

func newBuilder(p *problem) *builder {
	n := p.n
	b := &builder{
		p:     p,
		bits:  make([]termBits, 3*n+1),
		u:     make([]int, 2*n+1),
		mdown: make([]int, 3*n+1),
		mup:   make([]int, 2*n+1),
		log:   make([][3]int, 0, n),
	}
	for id := 0; id <= 2*n; id++ {
		b.bits[id] = p.leafBits[id]
		b.u[id] = id
		b.mdown[id] = id
		b.mup[id] = id
	}
	return b
}

// rebuild replays a merge schedule through a fresh builder.
func rebuild(p *problem, merges [][3]int) *builder {
	b := newBuilder(p)
	for i, m := range merges {
		b.merge(i, m[0], m[1], m[2])
	}
	return b
}

// clone returns an independent copy of the construction state.
func (b *builder) clone() *builder {
	c := *b
	c.bits = append([]termBits(nil), b.bits...)
	c.u = append([]int(nil), b.u...)
	c.mdown = append([]int(nil), b.mdown...)
	c.mup = append([]int(nil), b.mup...)
	c.log = append(make([][3]int, 0, cap(b.log)), b.log...)
	return &c
}

// triple is one candidate merge: the nodes that would become the X, Y
// and Z children of the step's new internal node.
type triple struct{ x, y, z int }

// candidates appends the step's vacuum-preserving candidate merges
// (Algorithm 2) to dst in enumeration order: only (O_X, O_Z) pairs are
// enumerated, with O_Y derived from the Z-descendant caches so that the X
// child's Z-descendant leaf 2l pairs with leaf 2l+1 under the Y child.
//
// The paper iterates ordered (O_X, O_Z) pairs and swaps roles when
// descZ(O_X) is odd; the swapped triple coincides with the triple
// generated directly from the even-descendant partner, so only nodes with
// even Z-descendants (≠ 2N) are enumerated as O_X, visiting the same
// candidate set once.
func (b *builder) candidates(dst []triple) []triple {
	n := b.p.n
	for _, ox := range b.u {
		x := b.mdown[ox]
		if x%2 == 1 || x == 2*n {
			continue
		}
		oy := b.mup[x+1]
		if oy == ox {
			continue
		}
		for _, oz := range b.u {
			if oz == ox || oz == oy {
				continue
			}
			dst = append(dst, triple{ox, oy, oz})
		}
	}
	return dst
}

// merge performs the step-i update (Algorithm 1 lines 13–16 plus the
// Algorithm 3 cache update): ox, oy, oz become the X, Y, Z children of the
// new internal node for qubit i, and the Hamiltonian reduces by settling
// qubit i.
func (b *builder) merge(i, ox, oy, oz int) {
	pid := 2*b.p.n + 1 + i
	b.predicted += settledWeight(b.bits[ox], b.bits[oy], b.bits[oz])

	pb := newTermBits(b.p.words)
	for w := range pb {
		pb[w] = b.bits[ox][w] ^ b.bits[oy][w] ^ b.bits[oz][w]
	}
	b.bits[pid] = pb

	u := b.u[:0]
	for _, v := range b.u {
		if v != ox && v != oy && v != oz {
			u = append(u, v)
		}
	}
	if len(u) != len(b.u)-3 {
		panic("core: node not in U")
	}
	b.u = append(u, pid) // pid exceeds all current members: stays sorted

	// O(1) cache update: the parent inherits the Z child's Z-descendant.
	zd := b.mdown[oz]
	b.mdown[pid] = zd
	b.mup[zd] = pid

	b.log = append(b.log, [3]int{ox, oy, oz})
}

// finish assembles the completed tree from the merge log once U has
// collapsed to the root.
func (b *builder) finish() *tree.Tree {
	if len(b.u) != 1 {
		panic("core: construction incomplete")
	}
	n := b.p.n
	nodes := make([]*tree.Node, 3*n+1)
	for id := 0; id <= 2*n; id++ {
		nodes[id] = &tree.Node{ID: id}
	}
	for i, m := range b.log {
		pid := 2*n + 1 + i
		parent := &tree.Node{ID: pid, Qubit: i}
		parent.SetChildren(nodes[m[0]], nodes[m[1]], nodes[m[2]])
		nodes[pid] = parent
	}
	t := &tree.Tree{N: n, Root: nodes[b.u[0]], Leaves: make([]*tree.Node, 2*n+1)}
	copy(t.Leaves, nodes[:2*n+1])
	return t
}

// result assembles the finished construction into a named Result.
func (b *builder) result(name string) *Result {
	t := b.finish()
	return &Result{
		Mapping:         mapping.FromTreeByLeafID(name, t),
		Tree:            t,
		PredictedWeight: b.predicted,
	}
}
