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
	n := p.n
	s := &exhaustiveState{
		ctx:       ctx,
		p:         p,
		bits:      make([]termBits, 3*n+1),
		u:         make([]int, 2*n+1),
		merges:    make([][3]int, n),
		best:      int(^uint(0) >> 1),
		maxVisits: opts.MaxVisits,
	}
	for id := 0; id <= 2*n; id++ {
		s.bits[id] = p.leafBits[id]
		s.u[id] = id
	}
	// Seed with the greedy Algorithm-1 solution: guarantees a result even
	// under a visit budget and tightens the branch-and-bound from the start.
	seed, err := buildUnoptScan(ctx, p, Options{})
	if err != nil {
		return nil, err
	}
	s.best = seed.predicted + 1 // strict bound: keep seed unless beaten
	s.bestMerges = make([][3]int, len(seed.log))
	copy(s.bestMerges, seed.log)
	s.dfs(0, 0)
	if s.cancelled {
		return nil, ctx.Err()
	}
	s.complete = !s.exhausted

	name := "FH"
	if !s.complete {
		name = "FH*"
	}
	return &ExhaustiveResult{
		Result:  *rebuild(p, s.bestMerges).result(name),
		Optimal: s.complete,
		Visited: s.visited,
	}, nil
}

type exhaustiveState struct {
	ctx        context.Context
	p          *problem
	bits       []termBits
	u          []int
	merges     [][3]int
	best       int
	bestMerges [][3]int
	visited    int64
	maxVisits  int64
	complete   bool
	exhausted  bool
	cancelled  bool
}

func (s *exhaustiveState) dfs(step, acc int) {
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
	n := s.p.n
	if step == n {
		if acc < s.best {
			s.best = acc
			s.bestMerges = make([][3]int, n)
			copy(s.bestMerges, s.merges)
		}
		return
	}
	u := s.u
	pid := 2*n + 1 + step
	for ai := 0; ai < len(u); ai++ {
		if ai > 0 && bitsEqual(s.bits[u[ai]], s.bits[u[ai-1]]) {
			continue // interchangeable with the previous first pick
		}
		for bi := ai + 1; bi < len(u); bi++ {
			if bi > ai+1 && bitsEqual(s.bits[u[bi]], s.bits[u[bi-1]]) {
				continue
			}
			for ci := bi + 1; ci < len(u); ci++ {
				if ci > bi+1 && bitsEqual(s.bits[u[ci]], s.bits[u[ci-1]]) {
					continue
				}
				ox, oy, oz := u[ai], u[bi], u[ci]
				w := settledWeight(s.bits[ox], s.bits[oy], s.bits[oz])
				if acc+w >= s.best {
					continue // bound: settled weight only grows
				}
				// Apply merge.
				pb := newTermBits(s.p.words)
				for k := range pb {
					pb[k] = s.bits[ox][k] ^ s.bits[oy][k] ^ s.bits[oz][k]
				}
				s.bits[pid] = pb
				s.merges[step] = [3]int{ox, oy, oz}
				newU := make([]int, 0, len(u)-2)
				for _, v := range u {
					if v != ox && v != oy && v != oz {
						newU = append(newU, v)
					}
				}
				newU = append(newU, pid)
				s.u = newU
				s.dfs(step+1, acc+w)
				s.u = u
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
