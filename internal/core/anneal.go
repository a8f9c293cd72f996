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
	curW := p.evaluateTree(cur)
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
		if a == b || a.Parent == nil || b.Parent == nil || related(a, b) {
			temp *= cool
			continue
		}
		swapNodes(a, b)
		w := p.evaluateTree(cur)
		delta := float64(w - curW)
		if delta <= 0 || r.Float64() < math.Exp(-delta/temp) {
			curW = w
			if w < bestW {
				bestW = w
				best = cloneTree(cur)
			}
		} else {
			swapNodes(a, b) // revert
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

// related reports whether one node is an ancestor of the other.
func related(a, b *tree.Node) bool {
	for n := a; n != nil; n = n.Parent {
		if n == b {
			return true
		}
	}
	for n := b; n != nil; n = n.Parent {
		if n == a {
			return true
		}
	}
	return false
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
