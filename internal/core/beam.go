package core

import (
	"context"
	"errors"

	"repro/internal/fermion"
)

// Beam generalizes the optimized HATT construction from greedy (width 1,
// equivalent to Build) to beam search: at every step the Width best
// partial trees by accumulated settled weight are kept, each expanded
// through the same vacuum-preserving candidate enumeration as Algorithm
// 2. This explores the future-work axis the paper leaves open — trading
// construction time (×width) for mapping quality — while keeping
// vacuum-state preservation. Ties collapse deterministically.
//
// It reads Width, Workers, Bound and BoundPos; it ignores TieBreak.
// Candidates are enumerated in a deterministic order, scored into an
// index-addressed slice over the worker pool, and the beam keeps the
// Width lowest (weight, enumeration position) pairs in that order, so the
// result is byte-identical at every worker count.
// The context is checked before each beam entry is expanded.
//
// The bound is consulted once per step against the minimum accumulated
// weight across the live beam, a lower bound on every completion the beam
// can still reach. On abandonment the greedy incumbent is still attempted
// under the same bound, because beam pruning may have discarded the
// greedy trajectory; if that too is unbeatable the search returns
// ErrBounded.
func Beam(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
	width := max(1, opts.Width)
	beams := []*builder{newBuilder(newProblem(mh))}
	n := beams[0].p.n
	type cand struct {
		parent *builder
		triple
		acc int
	}
	var trips []triple
	var cands []cand
	var keep []int
	bounded := false
	for i := 0; i < n; i++ {
		minAcc := beams[0].predicted
		for _, st := range beams[1:] {
			minAcc = min(minAcc, st.predicted)
		}
		if opts.Bound.Unbeatable(minAcc, opts.BoundPos) {
			bounded = true
			break
		}
		cands = cands[:0]
		for _, st := range beams {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			trips = st.candidates(trips[:0])
			for _, t := range trips {
				cands = append(cands, cand{st, t, 0})
			}
		}
		if err := scoreChunks(ctx, len(cands), opts.Workers, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				c := &cands[j]
				st := c.parent
				c.acc = st.predicted + settledWeight(st.bits[c.x], st.bits[c.y], st.bits[c.z])
			}
		}); err != nil {
			return nil, err
		}
		keep = lowest(keep[:0], len(cands), width, func(a, b int) bool {
			return cands[a].acc < cands[b].acc || cands[a].acc == cands[b].acc && a < b
		})
		next := make([]*builder, 0, len(keep))
		for _, j := range keep {
			c := &cands[j]
			child := c.parent.clone()
			child.merge(i, c.x, c.y, c.z)
			next = append(next, child)
		}
		beams = next
	}
	if bounded && width == 1 {
		return nil, ErrBounded
	}
	var best *builder
	if !bounded {
		best = beams[0]
		for _, st := range beams[1:] {
			if st.predicted < best.predicted {
				best = st
			}
		}
	}
	// Beam search can prune the greedy path (it keeps the global top-k by
	// accumulated weight, which need not contain greedy's trajectory), so
	// keep the first-found greedy result as an incumbent: Beam never
	// returns a worse mapping than Build. The incumbent shares this
	// search's context and portfolio bound.
	if width > 1 {
		greedy, err := Build(ctx, mh, Options{Bound: opts.Bound, BoundPos: opts.BoundPos})
		switch {
		case errors.Is(err, ErrBounded):
			// The greedy incumbent lost the race on its own; if the beam
			// was abandoned too there is nothing left worth returning.
			if bounded {
				return nil, ErrBounded
			}
		case err != nil:
			return nil, err
		case bounded || greedy.PredictedWeight < best.predicted:
			greedy.Mapping.Name = "HATT-beam"
			return greedy, nil
		}
	}
	return best.result("HATT-beam"), nil
}

// lowest appends to dst the k lowest of positions 0..n-1 under the strict
// total order less, in ascending order: the prefix a stable sort would
// keep, at O(n log k). A max-heap holds the k lowest seen so far; its
// root is the one the next lower position evicts.
func lowest(dst []int, n, k int, less func(i, j int) bool) []int {
	h := dst
	down := func(i, end int) {
		for {
			c := 2*i + 1
			if c >= end {
				return
			}
			if c+1 < end && less(h[c], h[c+1]) {
				c++
			}
			if !less(h[i], h[c]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for j := 0; j < n; j++ {
		switch {
		case len(h) < k:
			h = append(h, j)
			for i := len(h) - 1; i > 0 && less(h[(i-1)/2], h[i]); i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
		case less(j, h[0]):
			h[0] = j
			down(0, len(h))
		}
	}
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		down(0, end)
	}
	return h
}
