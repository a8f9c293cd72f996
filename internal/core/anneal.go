package core

import (
	"context"
	"math"
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
// OnImprove, Workers, Bound and BoundPos. The context is checked on every
// mutation attempt; on cancellation the search stops within one iteration
// and returns (nil, ctx.Err()).
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
	p := seed.p
	cur := seed.finish()
	ev := newTreeEval(seed)
	curW := ev.total
	best := cloneTree(cur)
	bestW := curW
	// Every non-identity term settles at least one Pauli letter under any
	// tree, so nTerms floors every weight this chain could ever reach.
	floor := p.nTerms
	emitted := int(^uint(0) >> 1) // emit the start tree at the first stride

	r := rand.New(rand.NewSource(opts.Seed))
	all := collectNodes(cur)
	cool := math.Pow(opts.TEnd/opts.TStart, 1/math.Max(1, float64(opts.Iters-1)))
	temp := opts.TStart
	stride := opts.Iters / 100
	if stride < 1 {
		stride = 1
	}
	for it := 0; it < opts.Iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
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
		if !ev.swap(a, b) {
			temp *= cool
			continue
		}
		w := ev.total
		delta := float64(w - curW)
		if delta <= 0 || r.Float64() < math.Exp(-delta/temp) {
			curW = w
			if w < bestW {
				bestW = w
				best = cloneTree(cur)
			}
		} else {
			ev.revert(a, b)
		}
		temp *= cool
	}
	if opts.Progress != nil {
		opts.Progress(opts.Iters, opts.Iters, bestW)
	}
	return annealResult(best, bestW), nil
}

// annealResult assembles a Result around a retired best-so-far snapshot.
// The tree is never mutated after it was cloned into place, so the
// mapping and the Result may outlive the chain.
func annealResult(best *tree.Tree, bestW int) *Result {
	return &Result{
		Mapping:         mapping.FromTreeByLeafID("FH-anneal", best),
		Tree:            best,
		PredictedWeight: bestW,
	}
}

// treeEval scores one chain's tree incrementally. It holds every
// node's subtree parity bitset in one backing array indexed by node ID,
// every internal node's settled weight, and their running total. A swap
// of a and b changes only the nodes strictly between each swapped node
// and their lowest common ancestor (LCA): each of those gains one and
// loses the other, so its parity flips by par[a] ^ par[b]. Those nodes
// and the LCA are re-scored; nothing above the LCA moves. A rejected
// swap applies the same XOR again, since XOR undoes itself, and restores
// the settled weights from an undo log.
type treeEval struct {
	words   int
	par     []uint64 // node ID → par[ID*words : (ID+1)*words]
	settled []int    // internal node ID → settled weight
	total   int
	// mark[ID] == epoch flags the ancestors of the pending swap's a.
	mark  []int
	epoch int
	// The pending swap: its LCA, the weights it overwrote and the total
	// before it.
	lca   *tree.Node
	undo  []settledUndo
	nUndo int
	prev  int
}

// settledUndo is one overwritten settled weight.
type settledUndo struct{ id, w int }

// newTreeEval reads the seed construction's parities and settled
// weights; their total is the seed's predicted weight.
func newTreeEval(seed *builder) *treeEval {
	p := seed.p
	e := &treeEval{
		words:   p.words,
		par:     make([]uint64, len(seed.bits)*p.words),
		settled: make([]int, len(seed.bits)),
		mark:    make([]int, len(seed.bits)),
		// A swap re-scores distinct internal nodes: at most n.
		undo: make([]settledUndo, p.n),
	}
	for id, b := range seed.bits {
		copy(e.bits(id), b)
	}
	for i, m := range seed.log {
		w := settledWeight(seed.bits[m[0]], seed.bits[m[1]], seed.bits[m[2]])
		e.settled[2*p.n+1+i] = w
		e.total += w
	}
	return e
}

// bits is the parity bitset of node id, a view into par.
//
//hatt:noalloc
func (e *treeEval) bits(id int) termBits {
	return e.par[id*e.words : (id+1)*e.words]
}

// swap exchanges a and b and re-scores the tree. It changes nothing and
// reports false when one node is an ancestor of the other, which
// includes a == b and either one being the root.
//
//hatt:noalloc
func (e *treeEval) swap(a, b *tree.Node) bool {
	e.epoch++
	for n := a; n != nil; n = n.Parent {
		e.mark[n.ID] = e.epoch
	}
	lca := b
	for e.mark[lca.ID] != e.epoch {
		lca = lca.Parent
	}
	if lca == a || lca == b {
		return false
	}
	e.lca, e.nUndo, e.prev = lca, 0, e.total
	swapNodes(a, b)
	e.flipPath(b, a, b, true) // b now hangs where a did
	e.flipPath(a, a, b, true)
	e.rescore(lca)
	return true
}

// revert undoes the last successful swap(a, b).
//
//hatt:noalloc
func (e *treeEval) revert(a, b *tree.Node) {
	swapNodes(a, b)
	e.flipPath(a, a, b, false)
	e.flipPath(b, a, b, false)
	for _, u := range e.undo[:e.nUndo] {
		e.settled[u.id] = u.w
	}
	e.total = e.prev
}

// flipPath XORs par[a] ^ par[b] into every ancestor of from strictly
// below the pending swap's LCA, re-scoring each one when rescore is set.
//
//hatt:noalloc
func (e *treeEval) flipPath(from, a, b *tree.Node, rescore bool) {
	pa, pb := e.bits(a.ID), e.bits(b.ID)
	for n := from.Parent; n != e.lca; n = n.Parent {
		p := e.bits(n.ID)
		for i := range p {
			p[i] ^= pa[i] ^ pb[i]
		}
		if rescore {
			e.rescore(n)
		}
	}
}

// rescore recomputes n's settled weight from its children's parities,
// logging the old weight for revert.
//
//hatt:noalloc
func (e *treeEval) rescore(n *tree.Node) {
	w := settledWeight(e.bits(n.Child[tree.BX].ID), e.bits(n.Child[tree.BY].ID), e.bits(n.Child[tree.BZ].ID))
	e.undo[e.nUndo] = settledUndo{n.ID, e.settled[n.ID]}
	e.nUndo++
	e.total += w - e.settled[n.ID]
	e.settled[n.ID] = w
}

// swapNodes exchanges the tree positions of two unrelated non-root nodes.
func swapNodes(a, b *tree.Node) {
	pa, ba := a.Parent, a.PBranch
	pb, bb := b.Parent, b.PBranch
	pa.Child[ba] = b
	b.Parent, b.PBranch = pa, ba
	pb.Child[bb] = a
	a.Parent, a.PBranch = pb, bb
}

// collectNodes returns all nodes of the tree.
func collectNodes(t *tree.Tree) []*tree.Node {
	var out []*tree.Node
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		out = append(out, n)
		if n.IsLeaf() {
			return
		}
		for _, c := range n.Child {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// cloneTree deep-copies a tree, preserving IDs, qubits, and leaf indexing.
func cloneTree(t *tree.Tree) *tree.Tree {
	c := &tree.Tree{N: t.N, Leaves: make([]*tree.Node, len(t.Leaves))}
	var walk func(n *tree.Node) *tree.Node
	walk = func(n *tree.Node) *tree.Node {
		nn := &tree.Node{ID: n.ID, Qubit: n.Qubit, PBranch: n.PBranch}
		if n.IsLeaf() {
			c.Leaves[n.ID] = nn
			return nn
		}
		for i, ch := range n.Child {
			cc := walk(ch)
			nn.Child[i] = cc
			cc.Parent = nn
		}
		return nn
	}
	c.Root = walk(t.Root)
	return c
}
