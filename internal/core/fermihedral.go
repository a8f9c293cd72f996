package core

import (
	"context"

	"repro/internal/fermion"
)

// ExhaustiveResult reports the outcome of the Fermihedral-substitute
// exhaustive search.
type ExhaustiveResult struct {
	Result
	// Optimal is true when the search space was fully explored (possibly
	// with branch-and-bound pruning, which never discards an optimum);
	// false when the visit budget was exhausted first, in which case the
	// result is the best mapping found so far — the analogue of
	// Fermihedral's '*' approximately-optimal solutions.
	Optimal bool
	Visited int64
}

// Exhaustive searches the entire ternary-tree fermion-to-qubit mapping
// space for the Hamiltonian-minimal Pauli weight, standing in for the
// Fermihedral SAT baseline. It explores all sequences of 3-subset merges
// with branch-and-bound on the accumulated settled weight, plus sibling
// deduplication (candidates whose term bitsets coincide are
// interchangeable). Complexity is super-exponential in N — by design: the
// scalability wall is part of what Figure 12 reproduces.
//
// It reads only MaxVisits, the bound on explored merge states (≤ 0 means
// unlimited). The context is checked on every visited search state; on
// cancellation the recursion unwinds within one state expansion and
// (nil, ctx.Err()) is returned.
func Exhaustive(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*ExhaustiveResult, error) {
	p := newProblem(mh)
	// Seed with the greedy Algorithm-1 solution: guarantees a result even
	// under a visit budget and tightens the branch-and-bound from the start.
	seed, err := buildUnoptScan(ctx, p, Options{})
	if err != nil {
		return nil, err
	}
	s := &exhaustiveState{
		ctx:       ctx,
		b:         newBuilder(p),
		us:        make([]int, p.n*(2*p.n+1)),
		best:      seed.predicted + 1, // admits the first search result that ties the seed
		incumbent: seed,
		maxVisits: opts.MaxVisits,
	}
	s.dfs(0)
	if s.cancelled {
		return nil, ctx.Err()
	}
	name := "FH"
	if s.exhausted {
		name = "FH*"
	}
	return &ExhaustiveResult{
		Result:  *s.incumbent.result(name),
		Optimal: !s.exhausted,
		Visited: s.visited,
	}, nil
}

// exhaustiveState is the depth-first search over one builder: each branch
// merges, recurses and undoes the merge.
type exhaustiveState struct {
	ctx context.Context
	b   *builder
	// us holds in row step, of width 2N+1, the active set on entry to
	// step, which the step's loops scan and every undo restores.
	us        []int
	best      int      // the bound: the incumbent's weight, plus one for the seed
	incumbent *builder // the best complete construction found
	visited   int64
	maxVisits int64
	exhausted bool
	cancelled bool
}

func (s *exhaustiveState) dfs(step int) {
	if s.exhausted || s.cancelled {
		return
	}
	if s.ctx.Err() != nil {
		s.cancelled = true
		return
	}
	s.visited++
	if s.maxVisits > 0 && s.visited > s.maxVisits {
		s.exhausted = true
		return
	}
	b := s.b
	if step == b.p.n {
		if b.predicted < s.best {
			s.best = b.predicted
			s.incumbent = b.clone()
		}
		return
	}
	acc := b.predicted
	u := s.us[step*(2*b.p.n+1):][:len(b.u)]
	copy(u, b.u)
	for ai := 0; ai < len(u); ai++ {
		if ai > 0 && bitsEqual(b.bits[u[ai]], b.bits[u[ai-1]]) {
			continue // interchangeable with the previous first pick
		}
		for bi := ai + 1; bi < len(u); bi++ {
			if bi > ai+1 && bitsEqual(b.bits[u[bi]], b.bits[u[bi-1]]) {
				continue
			}
			for ci := bi + 1; ci < len(u); ci++ {
				if ci > bi+1 && bitsEqual(b.bits[u[ci]], b.bits[u[ci-1]]) {
					continue
				}
				if acc+settledWeight(b.bits[u[ai]], b.bits[u[bi]], b.bits[u[ci]]) >= s.best {
					continue // bound: settled weight only grows
				}
				b.merge(step, u[ai], u[bi], u[ci])
				s.dfs(step + 1)
				b.undo(u, acc)
				if s.exhausted || s.cancelled {
					return
				}
			}
		}
	}
}

func bitsEqual(a, b termBits) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
