package core

// Options configures every search in this package. Each search reads
// only the fields its documentation names and ignores the rest, and zero
// values select the documented defaults.
type Options struct {
	// Workers bounds the goroutines a search fans out over: candidate
	// scoring in Build and Beam, concurrent restart chains in Anneal.
	// Values below 2 run sequentially. The result is identical at every
	// worker count.
	Workers int
	// Bound, when non-nil, is a shared portfolio incumbent. A search
	// consulting it stops as soon as a lower bound on its final weight
	// proves it cannot win the lexicographic (weight, BoundPos) race; each
	// search documents its lower bound and what it returns then.
	// Abandonment is whole-search only — it never alters which merges a
	// surviving search selects — so the portfolio winner stays
	// byte-identical at any worker count or timing.
	Bound *Bound
	// BoundPos is this search's position in the portfolio's canonical
	// racer order, the tie-break key of the (weight, position) race.
	BoundPos int

	// TieBreak picks among equal-weight candidate merges (Build).
	TieBreak TieBreak
	// Width is the number of partial trees kept per step (Beam; minimum 1).
	Width int
	// MaxVisits bounds the explored merge states (Exhaustive; ≤ 0 means
	// unlimited).
	MaxVisits int64

	// The annealing schedule (Anneal).
	Iters  int     // mutation attempts per chain (default 2000·N)
	TStart float64 // initial temperature (default 2.0)
	TEnd   float64 // final temperature (default 0.01)
	Seed   int64   // RNG seed (default 1)
	// Restarts runs that many independent annealing chains (default 1);
	// chain k is seeded with Seed+k and the lowest-weight result wins,
	// earliest chain on ties. The winner depends only on Seed, Restarts,
	// and the schedule — never on Workers.
	Restarts int
	// Progress, when non-nil, is invoked periodically (roughly every 1% of
	// the schedule) with the current iteration, the total iteration count,
	// and the best weight found so far. With Restarts > 1 only the first
	// chain reports, keeping the callback single-goroutine (Anneal).
	Progress func(iter, iters, bestWeight int)
	// OnImprove, when non-nil, receives a freshly assembled Result each
	// time a chain's best weight has improved at a progress stride. The
	// delivered tree is the chain's retired best snapshot — it is never
	// mutated afterwards — so callers may hold it indefinitely. With
	// Restarts > 1 every chain reports concurrently and improvements are
	// only monotone per chain, so the callback must be safe for concurrent
	// use and must tolerate non-improving deliveries across chains
	// (Anneal).
	OnImprove func(*Result)
}
