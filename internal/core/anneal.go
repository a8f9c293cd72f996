package core

import (
	"context"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/parallel"
	"repro/internal/tree"
)

// Anneal refines the greedy HATT-unopt tree by simulated annealing over
// tree space: the mutation swaps two random non-root nodes that are not in
// ancestor/descendant relation, which reaches every complete ternary tree
// shape and leaf placement. It stands in for Fermihedral's approximate
// ('*') solutions at sizes where the exhaustive search is infeasible.
// The result keeps the leaf-ID-to-Majorana assignment, so like Fermihedral
// it does not guarantee vacuum-state preservation.
//
// It reads the schedule (Iters, TStart, TEnd, Seed, Restarts), Progress,
// OnImprove, Workers, Bound and BoundPos. Each chain checks the context
// once every 256 mutation attempts; on cancellation it stops within those
// 256 iterations and the search returns (nil, ctx.Err()).
//
// With Restarts > 1 the chains run concurrently over a bounded worker
// pool (Workers wide) and the best result is selected deterministically,
// so a fixed Seed yields a byte-identical mapping at any Workers value.
//
// Annealing has no nontrivial lower bound on its final weight — the
// best-so-far only decreases — so the only sound abandonment uses the
// universal floor (one Pauli letter per non-identity Hamiltonian term): a
// chain stops early iff even a floor-weight mapping could no longer win
// the race. Stopped chains return their best-so-far result, which by
// construction cannot win, leaving the portfolio winner untouched.
func Anneal(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
	if opts.Iters == 0 {
		opts.Iters = 2000 * mh.Modes
	}
	if opts.TStart == 0 {
		opts.TStart = 2.0
	}
	if opts.TEnd == 0 {
		opts.TEnd = 0.01
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Restarts < 1 {
		opts.Restarts = 1
	}
	// Every chain starts from the same Algorithm-1 tree, so the scan runs
	// once and each chain assembles its own mutable copy.
	seed, err := buildUnoptScan(ctx, newProblem(mh), Options{})
	if err != nil {
		return nil, err
	}
	if opts.Restarts == 1 {
		return annealChain(ctx, seed, opts)
	}
	results, err := parallel.Map(ctx, opts.Restarts, max(1, opts.Workers), func(k int) (*Result, error) {
		chain := opts
		chain.Seed = opts.Seed + int64(k)
		if k != 0 {
			chain.Progress = nil
		}
		return annealChain(ctx, seed, chain)
	})
	if err != nil {
		return nil, err
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.PredictedWeight < best.PredictedWeight {
			best = r
		}
	}
	return best, nil
}

// annealChain runs one simulated-annealing chain from the seed
// construction's tree to completion (or to bound-driven early exit).
func annealChain(ctx context.Context, seed *builder, opts Options) (*Result, error) {
	ev := newTreeEval(seed)
	best := ev.snapshot()
	bestW := ev.total
	// Every non-identity term settles at least one Pauli letter under any
	// tree, so nTerms floors every weight this chain could ever reach.
	floor := seed.p.nTerms
	emitted := int(^uint(0) >> 1) // emit the start tree at the first stride

	r := rand.New(rand.NewSource(opts.Seed))
	all := ev.preorder(nil, ev.root)
	cool := math.Pow(opts.TEnd/opts.TStart, 1/math.Max(1, float64(opts.Iters-1)))
	temp := opts.TStart
	stride := opts.Iters / 100
	if stride < 1 {
		stride = 1
	}
	for it := 0; it < opts.Iters; it++ {
		// ctx.Err takes the context's lock, so the chain checks it
		// every 256 iterations; a cancelled chain still stops within
		// milliseconds.
		if it%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if it%stride == 0 {
			if opts.Progress != nil {
				opts.Progress(it, opts.Iters, bestW)
			}
			if opts.OnImprove != nil && bestW < emitted {
				emitted = bestW
				opts.OnImprove(annealResult(best, bestW))
			}
			if opts.Bound.Unbeatable(floor, opts.BoundPos) {
				break // cannot win even at the floor; best-so-far stands
			}
		}
		a := all[r.Intn(len(all))]
		b := all[r.Intn(len(all))]
		w, ok := ev.score(a, b)
		if !ok {
			temp *= cool
			continue
		}
		delta := float64(w - ev.total)
		if delta <= 0 || metropolis(r.Float64(), -delta/temp) {
			ev.apply(a, b, w)
			if w < bestW {
				bestW = w
				best = ev.snapshot()
			}
		}
		temp *= cool
	}
	if opts.Progress != nil {
		opts.Progress(opts.Iters, opts.Iters, bestW)
	}
	return annealResult(best, bestW), nil
}

// metropolis reports u < e^x, the Metropolis test of a draw u from
// math/rand's Float64. That draw is k/2⁶³ for an integer k, so a nonzero
// u is at least 2⁻⁶³ > e⁻⁴⁴: at x ≤ −44 only u = 0 can pass, and
// math.Exp is skipped with the same outcome.
func metropolis(u, x float64) bool {
	return (x > -44 || u == 0) && u < math.Exp(x)
}

// annealResult assembles a Result around a retired best-so-far snapshot.
// The tree is never mutated after it was assembled, so the mapping and
// the Result may outlive the chain.
func annealResult(best *tree.Tree, bestW int) *Result {
	return &Result{
		Mapping:         mapping.FromTreeByLeafID("FH-anneal", best),
		Tree:            best,
		PredictedWeight: bestW,
	}
}

// treeEval is one chain's tree in flat arrays indexed by node ID: each
// node's parent and the slot (X, Y or Z) it fills there, each internal
// node's children, each node's subtree parity bitset and strict-ancestor
// bitset, each internal node's settled weight, and their running total.
//
// score prices a swap of a and b without changing any of it. When one
// node is in the other's ancestor set (which covers a == b and the root)
// the swap is refused. Otherwise only the nodes strictly between each
// swapped node and their lowest common ancestor (LCA) change parity, each
// by d = par[a] ^ par[b], so score re-weighs those nodes with d in the
// child on the path and the LCA with d in two children, keeping the
// weights as the pending swap. apply, run on an accepted swap alone,
// writes the pending weights, the parities and the links, and moves the
// ancestor sets of the two swapped subtrees.
type treeEval struct {
	n, words, ancWords int
	root               int32
	parent, slot       []int32  // node ID → parent ID (−1 at the root) and branch there
	child              []int32  // internal node ID → child[3*ID : 3*ID+3]
	par                []uint64 // node ID → par[ID*words : (ID+1)*words]
	anc                []uint64 // node ID → anc[ID*ancWords : (ID+1)*ancWords]
	settled            []int32  // internal node ID → settled weight
	total              int
	// The pending swap: d, and the nodes score re-weighed (the LCA last)
	// with their new weights. ancD and stack are apply's scratch.
	d           []uint64
	path, pathW []int32
	nPath       int
	ancD        []uint64
	stack       []int32
}

// newTreeEval lays out the seed construction's tree, parities and
// settled weights; their total is the seed's predicted weight.
func newTreeEval(seed *builder) *treeEval {
	p := seed.p
	ids := len(seed.bits)
	e := &treeEval{
		n: p.n, words: p.words, ancWords: (ids + 63) / 64,
		root:    int32(seed.u[0]),
		parent:  make([]int32, ids),
		slot:    make([]int32, ids),
		child:   make([]int32, 3*ids),
		par:     make([]uint64, ids*p.words),
		settled: make([]int32, ids),
		d:       make([]uint64, p.words),
		// A swap re-weighs distinct internal nodes: at most n.
		path:  make([]int32, p.n),
		pathW: make([]int32, p.n),
		// Each internal node popped pushes three: 2+2n entries at most.
		stack: make([]int32, ids+2),
	}
	e.anc = make([]uint64, ids*e.ancWords)
	e.ancD = make([]uint64, e.ancWords)
	e.parent[e.root] = -1
	for id, b := range seed.bits {
		copy(e.bits(int32(id)), b)
	}
	for i, m := range seed.log {
		pid := 2*p.n + 1 + i
		for k, c := range m {
			e.child[3*pid+k], e.parent[c], e.slot[c] = int32(c), int32(pid), int32(k)
		}
		w := settledWeight(seed.bits[m[0]], seed.bits[m[1]], seed.bits[m[2]])
		e.settled[pid] = int32(w)
		e.total += w
	}
	for _, id := range e.preorder(nil, e.root)[1:] { // parents first
		pa := e.parent[id]
		copy(e.ancestors(id), e.ancestors(pa))
		e.ancestors(id)[pa/64] |= 1 << (pa % 64)
	}
	return e
}

// preorder appends the subtree under id depth first, X before Y before
// Z. From the root it is the chain's proposal list, which the seeded
// draws index, so its order is part of every seeded result.
func (e *treeEval) preorder(dst []int32, id int32) []int32 {
	dst = append(dst, id)
	if int(id) > 2*e.n {
		for _, c := range e.child[3*id : 3*id+3] {
			dst = e.preorder(dst, c)
		}
	}
	return dst
}

// bits is the parity bitset of node id, a view into par.
//
//hatt:noalloc
func (e *treeEval) bits(id int32) termBits {
	return e.par[int(id)*e.words : int(id+1)*e.words]
}

// ancestors is the strict-ancestor bitset of node id, a view into anc.
//
//hatt:noalloc
func (e *treeEval) ancestors(id int32) []uint64 {
	return e.anc[int(id)*e.ancWords : int(id+1)*e.ancWords]
}

// has reports whether node id is in the ancestor set set.
//
//hatt:noalloc
func has(set []uint64, id int32) bool {
	return set[id>>6]>>(id&63)&1 != 0
}

// score returns the total weight with a and b swapped, or false when one
// is an ancestor of the other. It writes only the pending swap.
//
//hatt:noalloc
func (e *treeEval) score(a, b int32) (int, bool) {
	ancA, ancB := e.ancestors(a), e.ancestors(b)
	if a == b || has(ancB, a) || has(ancA, b) {
		return 0, false
	}
	pa, pb, d := e.bits(a), e.bits(b), e.d
	for i := range d {
		d[i] = pa[i] ^ pb[i]
	}
	total, k := e.total, 0
	n, s := e.parent[a], e.slot[a]
	for !has(ancB, n) { // the first ancestor of a that is one of b's is the LCA
		total += e.pend(k, n, 1<<s)
		k++
		n, s = e.parent[n], e.slot[n]
	}
	lca, sa := n, s
	for n, s = e.parent[b], e.slot[b]; n != lca; n, s = e.parent[n], e.slot[n] {
		total += e.pend(k, n, 1<<s)
		k++
	}
	total += e.pend(k, lca, 1<<sa|1<<s)
	e.nPath = k + 1
	return total, true
}

// pend re-weighs n with d XORed into the children whose slots are set in
// on, records it as pending entry k, and returns the weight's change.
//
//hatt:noalloc
func (e *treeEval) pend(k int, n int32, on uint) int {
	d, par := e.d, e.par
	words := len(d)
	c := e.child[3*int(n):][:3]
	x, y, z := par[int(c[0])*words:][:words], par[int(c[1])*words:][:words], par[int(c[2])*words:][:words]
	// A mask per slot instead of a branch: the path's slots are random.
	mx, my, mz := -uint64(on&1), -uint64(on>>1&1), -uint64(on>>2&1)
	weight := 0
	for i, di := range d {
		bx, by, bz := x[i]^di&mx, y[i]^di&my, z[i]^di&mz
		weight += bits.OnesCount64((bx | by | bz) &^ (bx & by & bz))
	}
	e.path[k], e.pathW[k] = n, int32(weight)
	return weight - int(e.settled[n])
}

// apply makes the swap of a and b that score last priced, at the total
// it returned.
//
//hatt:noalloc
func (e *treeEval) apply(a, b int32, total int) {
	path, d := e.path[:e.nPath], e.d
	for _, n := range path[:len(path)-1] { // the LCA's parity stays
		p := e.bits(n)
		for i := range p {
			p[i] ^= d[i]
		}
	}
	for k, n := range path {
		e.settled[n] = e.pathW[k]
	}
	e.total = total
	pa, sa, pb, sb := e.parent[a], e.slot[a], e.parent[b], e.slot[b]
	e.child[3*pa+sa], e.parent[b], e.slot[b] = b, pa, sa
	e.child[3*pb+sb], e.parent[a], e.slot[a] = a, pb, sb
	// The two subtrees are disjoint from both ancestor sets, so every
	// node under a trades anc[a] for anc[b] and every node under b the
	// reverse: one XOR by anc[a] ^ anc[b] for both.
	ra, rb, x := e.ancestors(a), e.ancestors(b), e.ancD
	for i := range x {
		x[i] = ra[i] ^ rb[i]
	}
	stack := e.stack
	stack[0], stack[1] = a, b
	for sp := 2; sp > 0; {
		sp--
		id := stack[sp]
		r := e.ancestors(id)
		for i := range r {
			r[i] ^= x[i]
		}
		if int(id) > 2*e.n {
			sp += copy(stack[sp:], e.child[3*id:3*id+3])
		}
	}
}

// snapshot assembles the current tree with the seed's IDs, qubits and
// leaf indexing: internal node 2N+1+i is qubit i wherever it hangs.
func (e *treeEval) snapshot() *tree.Tree {
	nodes := make([]tree.Node, len(e.parent))
	t := &tree.Tree{N: e.n, Root: &nodes[e.root], Leaves: make([]*tree.Node, 2*e.n+1)}
	for id := range nodes {
		nd := &nodes[id]
		nd.ID, nd.PBranch = id, tree.Branch(e.slot[id])
		if pa := e.parent[id]; pa >= 0 {
			nd.Parent = &nodes[pa]
		}
		if id <= 2*e.n {
			t.Leaves[id] = nd
			continue
		}
		nd.Qubit = id - 2*e.n - 1
		for k, c := range e.child[3*id : 3*id+3] {
			nd.Child[k] = &nodes[c]
		}
	}
	return t
}
