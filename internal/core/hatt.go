package core

import (
	"context"

	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/tree"
)

// Result bundles a constructed mapping with its tree and the Pauli weight
// the construction predicted (which equals the weight of the mapped qubit
// Hamiltonian).
type Result struct {
	Mapping         *mapping.Mapping
	Tree            *tree.Tree
	PredictedWeight int
}

// BuildUnopt runs Algorithm 1: the plain Hamiltonian-adaptive bottom-up
// construction. At each of the N steps it examines every 3-subset of the
// active node set (the X/Y/Z role split does not affect the settled weight,
// so unordered subsets suffice — the paper's permutation enumeration visits
// the same candidates six times each) and merges the subset minimizing the
// Pauli weight settled on that step's qubit. O(N⁴) overall. The resulting
// mapping is *not* vacuum-state preserving in general.
//
// It reads Bound and BoundPos. The context and the bound are checked once
// per construction step; against the bound, the accumulated settled
// weight is the lower bound, and a lost race returns ErrBounded.
func BuildUnopt(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
	b, err := buildUnoptScan(ctx, newProblem(mh), opts)
	if err != nil {
		return nil, err
	}
	return b.result("HATT-unopt"), nil
}

// buildUnoptScan is BuildUnopt's pruned scan. It returns the builder, so
// the searches seeded with Algorithm 1 can reuse its merge log or tree.
func buildUnoptScan(ctx context.Context, p *problem, opts Options) (*builder, error) {
	b := newBuilder(p)
	n := p.n
	// Pairwise symmetric-difference popcounts over all node IDs, filled
	// once for the leaves and extended by one row per merge. For any third
	// node c, settledWeight(a,b,c) ≥ delta[a][b] (see symDiffWeight), so
	// the table prunes candidate triples below the incumbent without
	// touching their bitsets. The selection is identical to the unpruned
	// scan: pruned triples can never satisfy the strict w < bestW update.
	ids := 3*n + 1
	delta := make([]int32, ids*ids)
	for ai := 0; ai <= 2*n; ai++ {
		for bi := ai + 1; bi <= 2*n; bi++ {
			d := int32(symDiffWeight(b.bits[ai], b.bits[bi]))
			delta[ai*ids+bi] = d
			delta[bi*ids+ai] = d
		}
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// b.predicted only grows, so once it proves the race lost the
		// whole scan is abandoned.
		if opts.Bound.Unbeatable(b.predicted, opts.BoundPos) {
			return nil, ErrBounded
		}
		bestW := int(^uint(0) >> 1)
		var bx, by, bz int
		u := b.u
		for ai := 0; ai < len(u); ai++ {
			da := delta[u[ai]*ids:]
			for bi := ai + 1; bi < len(u); bi++ {
				if int(da[u[bi]]) >= bestW {
					continue // no third node can beat the incumbent
				}
				db := delta[u[bi]*ids:]
				for ci := bi + 1; ci < len(u); ci++ {
					if int(da[u[ci]]) >= bestW || int(db[u[ci]]) >= bestW {
						continue
					}
					w := settledWeight(b.bits[u[ai]], b.bits[u[bi]], b.bits[u[ci]])
					if w < bestW {
						bestW = w
						bx, by, bz = u[ai], u[bi], u[ci]
					}
				}
			}
		}
		b.merge(i, bx, by, bz)
		pid := 2*n + 1 + i
		for _, id := range b.u {
			if id == pid {
				continue
			}
			d := int32(symDiffWeight(b.bits[pid], b.bits[id]))
			delta[pid*ids+id] = d
			delta[id*ids+pid] = d
		}
	}
	return b, nil
}

// buildUnoptReference is the unpruned Algorithm 1 scan, kept as the
// differential oracle for the prune (tests assert merge-schedule equality)
// and as the before-side of the BuildUnopt benchmark.
func buildUnoptReference(p *problem) *builder {
	b := newBuilder(p)
	n := p.n
	for i := 0; i < n; i++ {
		bestW := int(^uint(0) >> 1)
		var bx, by, bz int
		u := b.u
		for ai := 0; ai < len(u); ai++ {
			for bi := ai + 1; bi < len(u); bi++ {
				for ci := bi + 1; ci < len(u); ci++ {
					w := settledWeight(b.bits[u[ai]], b.bits[u[bi]], b.bits[u[ci]])
					if w < bestW {
						bestW = w
						bx, by, bz = u[ai], u[bi], u[ci]
					}
				}
			}
		}
		b.merge(i, bx, by, bz)
	}
	return b
}

// BuildUnoptReference runs BuildUnopt without the pairwise-delta prune.
// It exists for differential tests and before/after benchmarks; use
// BuildUnopt everywhere else.
func BuildUnoptReference(mh *fermion.MajoranaHamiltonian) *Result {
	return buildUnoptReference(newProblem(mh)).result("HATT-unopt")
}

// Build runs the optimized HATT construction (Algorithms 2 and 3): at each
// step only (O_X, O_Z) pairs are enumerated, with O_Y derived from the
// Z-descendant caches so that the X child's Z-descendant leaf 2l pairs
// with leaf 2l+1 under the Y child. This guarantees every Majorana pair
// (M_2l, M_2l+1) shares an (X,Y) letter pair on one qubit and acts
// |0⟩-equivalently elsewhere — vacuum-state preservation — while keeping
// the greedy weight minimization. O(N³) overall.
//
// A triple's settled weight depends only on three bitsets that never
// change, so a score table that lives for one construction scores each
// triple once: a step after the first scores the new parent's row and
// column and the one row whose O_Y the last merge moved, O(|U|) triples
// instead of O(|U|²). Candidates are scanned in enumeration order
// (ascending O_X, then O_Z), so ties resolve to the first candidate.
//
// It reads TieBreak, Bound and BoundPos. The context and the bound are
// checked once per construction step; against the bound, the accumulated
// settled weight is the lower bound, and a lost race returns ErrBounded.
func Build(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
	b := newBuilder(newProblem(mh))
	n := b.p.n
	ids := 3*n + 1
	depth := make([]int, ids) // leaves depth 0
	// score[ox*ids+oz] is the settled weight of (ox, rowY[ox], oz), or −1
	// if that triple is not scored yet. A row is cleared when the O_Y
	// derived for it differs from the one its scores were taken with.
	score := make([]int32, ids*ids)
	for j := range score {
		score[j] = -1
	}
	rowY := make([]int, ids)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// b.predicted only grows, so once it proves the race lost the whole
		// search is abandoned.
		if opts.Bound.Unbeatable(b.predicted, opts.BoundPos) {
			return nil, ErrBounded
		}
		bestW := int(^uint(0) >> 1)
		bestTie := int(^uint(0) >> 1)
		bx, by, bz := -1, -1, -1
		for _, ox := range b.u {
			oy, ok := b.pairY(ox)
			if !ok {
				continue
			}
			row := score[ox*ids : (ox+1)*ids]
			if rowY[ox] != oy {
				for j := range row {
					row[j] = -1
				}
				rowY[ox] = oy
			}
			for _, oz := range b.u {
				if oz == ox || oz == oy {
					continue
				}
				w := int(row[oz])
				if w < 0 {
					w = settledWeight(b.bits[ox], b.bits[oy], b.bits[oz])
					row[oz] = int32(w)
				}
				if w > bestW {
					continue
				}
				tie := 0
				switch opts.TieBreak {
				case TieDepth:
					tie = 1 + max3(depth[ox], depth[oy], depth[oz])
				case TieSupport:
					tie = parentSupport(b.bits[ox], b.bits[oy], b.bits[oz])
				}
				if w < bestW || tie < bestTie {
					bestW, bestTie = w, tie
					bx, by, bz = ox, oy, oz
				}
			}
		}
		if bx < 0 {
			panic("core: no valid vacuum-preserving selection (invariant violated)")
		}
		depth[2*n+1+i] = 1 + max3(depth[bx], depth[by], depth[bz])
		b.merge(i, bx, by, bz)
	}
	return b.result("HATT"), nil
}

// ResetBuildCache does nothing: Build keeps no state between calls.
//
// Deprecated: Build has no cache; drop the call.
func ResetBuildCache() {}

// BuildUncached runs Algorithm 2 *without* the Algorithm 3 caches: the
// Z-descendant and ancestor lookups walk the tree explicitly, giving the
// O(N⁴) variant that the cache ablation times against Build. The
// produced mapping is identical to Build's.
func BuildUncached(mh *fermion.MajoranaHamiltonian) *Result {
	p := newProblem(mh)
	b := newBuilder(p)
	n := p.n
	nodes := make([]*tree.Node, 3*n+1)
	inU := make([]bool, 3*n+1)
	for _, id := range b.u {
		nodes[id] = &tree.Node{ID: id}
		inU[id] = true
	}
	for i := 0; i < n; i++ {
		bestW := int(^uint(0) >> 1)
		var bx, by, bz int
		found := false
		for _, ox := range b.u {
			x := nodes[ox].DescZ().ID // O(depth) walk down
			if x%2 == 1 || x == 2*n {
				continue
			}
			// O(depth) walk up from leaf x+1 to its ancestor in U.
			anc := nodes[x+1]
			for !inU[anc.ID] {
				anc = anc.Parent
			}
			oy := anc.ID
			if oy == ox {
				continue
			}
			for _, oz := range b.u {
				if oz == ox || oz == oy {
					continue
				}
				w := settledWeight(b.bits[ox], b.bits[oy], b.bits[oz])
				if w < bestW {
					bestW = w
					bx, by, bz = ox, oy, oz
					found = true
				}
			}
		}
		if !found {
			panic("core: no valid vacuum-preserving selection (invariant violated)")
		}
		pid := 2*n + 1 + i
		nodes[pid] = &tree.Node{ID: pid, Qubit: i}
		nodes[pid].SetChildren(nodes[bx], nodes[by], nodes[bz])
		inU[bx], inU[by], inU[bz] = false, false, false
		inU[pid] = true
		b.merge(i, bx, by, bz)
	}
	return b.result("HATT-uncached")
}
