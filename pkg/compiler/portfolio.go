package compiler

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// maxPortfolioRacers bounds the field size; the packed incumbent bound
// reserves 16 bits for the racer position, so the real ceiling is far
// higher — this is a sanity cap on the spec surface.
const maxPortfolioRacers = 64

// defaultRacers is the field a bare "portfolio" spec races: the greedy
// HATT construction, beam search at width 4, and simulated annealing —
// the three searches with complementary cost/quality profiles.
func defaultRacers() []string { return []string{"hatt", "beam", "anneal"} }

func init() {
	MustRegister(method{
		name: "portfolio",
		run: func(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
			return runPortfolio(ctx, mh, opts, defaultRacers())
		},
		parse: func(arg string) (Method, error) {
			racers, err := parsePortfolioSpec(arg)
			if err != nil {
				return nil, err
			}
			return method{name: "portfolio", run: func(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
				return runPortfolio(ctx, mh, opts, racers)
			}}, nil
		},
	})
}

// parsePortfolioSpec parses the '+'-separated racer list of a
// "portfolio:<m1+m2+…>" spec. Each racer must itself resolve against
// the registry (parameters included, e.g. "beam:8"), portfolios may not
// nest, and duplicate racer specs are rejected because the canonical
// racer order doubles as the race's tie-break key.
func parsePortfolioSpec(arg string) ([]string, error) {
	parts := strings.Split(arg, "+")
	if len(parts) > maxPortfolioRacers {
		return nil, fmt.Errorf("compiler: portfolio with %d racers (max %d)", len(parts), maxPortfolioRacers)
	}
	seen := make(map[string]bool, len(parts))
	racers := make([]string, 0, len(parts))
	for _, spec := range parts {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			return nil, fmt.Errorf("compiler: empty racer in portfolio spec %q (want portfolio:<m1+m2+…>)", arg)
		}
		if name, _, _ := strings.Cut(spec, ":"); name == "portfolio" {
			return nil, fmt.Errorf("compiler: portfolio racer %q: portfolios do not nest", spec)
		}
		if seen[spec] {
			return nil, fmt.Errorf("compiler: duplicate portfolio racer %q", spec)
		}
		seen[spec] = true
		if _, err := Resolve(spec); err != nil {
			return nil, fmt.Errorf("compiler: portfolio racer %q: %w", spec, err)
		}
		racers = append(racers, spec)
	}
	return racers, nil
}

// PortfolioShape is the model-shape key portfolio races are ledgered
// under: mode count and non-identity term count, the two cheap knobs
// that dominate which search method wins.
func PortfolioShape(mh *fermion.MajoranaHamiltonian) string {
	return fmt.Sprintf("m%d.t%d", mh.Modes, len(mh.IndexSets()))
}

// runPortfolio races the given specs concurrently under a shared
// incumbent bound and returns the deterministic winner: the completed
// result with the lexicographically smallest (weight, racer position)
// in the spec's declared order. The ledger, when attached, reorders
// which racer launches first when the pool is narrower than the field
// — scheduling only, never selection — and receives the outcome.
func runPortfolio(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options, racers []string) (*Result, error) {
	if opts.search.Bound != nil {
		return nil, errors.New("compiler: portfolio cannot race inside another portfolio")
	}
	n := len(racers)
	methods := make([]Method, n)
	for i, spec := range racers {
		m, err := Resolve(spec)
		if err != nil {
			return nil, fmt.Errorf("compiler: portfolio racer %q: %w", spec, err)
		}
		methods[i] = m
	}
	portfolioRaces.Add(1)

	// Bandit ordering: the ledger may move its favorite to the front of
	// the launch queue, which matters when Parallelism < n. Canonical
	// positions (and with them the winner tie-break) are untouched.
	launch := make([]int, n)
	for i := range launch {
		launch[i] = i
	}
	if opts.Ledger != nil {
		ranked := opts.Ledger.Rank(PortfolioShape(mh), append([]string(nil), racers...))
		launch = launchOrder(racers, ranked)
	}

	bound := core.NewBound()
	inner := max(1, opts.search.Workers/n)
	type outcome struct {
		res *Result
		err error
	}
	outcomes := make([]outcome, n)

	// Portfolio-wide monotone gate for partial deliveries: racers (and
	// anneal improvements inside them) report concurrently, the consumer
	// sees strictly decreasing weights. Emission stays under the mutex so
	// deliveries cannot reorder.
	var pmu sync.Mutex
	bestPartial := int(^uint(0) >> 1)
	emitPartial := func(spec string, w int, m *mapping.Mapping) {
		if opts.Partial == nil {
			return
		}
		pmu.Lock()
		defer pmu.Unlock()
		if w >= bestPartial {
			return
		}
		bestPartial = w
		opts.Partial(PartialResult{Method: spec, Weight: w, Mapping: m})
	}

	rctx, raceSpan := obs.StartSpan(ctx, "portfolio.race")
	raceSpan.SetAttr("racers", strings.Join(racers, "+"))
	defer raceSpan.End()

	err := parallel.ForEach(rctx, n, min(n, max(1, opts.search.Workers)), func(li int) error {
		c := launch[li]
		spec := racers[c]
		sub := opts
		sub.search.Bound = bound
		sub.search.BoundPos = c
		sub.search.Workers = inner
		sub.Store = nil // the race caches at the portfolio level only
		sub.Ledger = nil
		sub.DeviceName, sub.Device = "", nil // routing attaches to the winner once
		sub.Partial = func(p PartialResult) {
			bound.Offer(p.Weight, c)
			emitPartial(spec, p.Weight, p.Mapping)
		}
		if opts.Partial == nil {
			// Anytime racers still feed the bound even when nobody is
			// watching partials.
			sub.Partial = func(p PartialResult) { bound.Offer(p.Weight, c) }
		}
		sctx, span := obs.StartSpan(rctx, "portfolio.racer")
		span.SetAttr("method", spec)
		sub.emit(ProgressEvent{Method: spec, Stage: StageStart})
		res, rerr := methods[c].Compile(sctx, mh, sub)
		switch {
		case rerr == nil:
			span.SetAttr("outcome", "completed")
			span.End()
			bound.Offer(res.PredictedWeight, c)
			emitPartial(spec, res.PredictedWeight, res.Mapping)
			sub.emit(ProgressEvent{Method: spec, Stage: StageDone, BestWeight: res.PredictedWeight})
			outcomes[c] = outcome{res: res}
		case errors.Is(rerr, core.ErrBounded):
			span.SetAttr("outcome", "bounded")
			span.End()
			outcomes[c] = outcome{err: rerr}
		case rctx.Err() != nil:
			span.SetAttr("outcome", "canceled")
			span.End()
			return rctx.Err() // abort the whole race
		default:
			span.SetAttr("outcome", "error")
			span.End()
			outcomes[c] = outcome{err: rerr}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Winner reduction in canonical order: strict < keeps the earliest
	// racer on weight ties, matching the bound's lexicographic packing.
	var win *Result
	winIdx := -1
	for c := 0; c < n; c++ {
		r := outcomes[c].res
		if r == nil {
			continue
		}
		if win == nil || r.PredictedWeight < win.PredictedWeight {
			win, winIdx = r, c
		}
	}
	if win == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for c := 0; c < n; c++ {
			if e := outcomes[c].err; e != nil && !errors.Is(e, core.ErrBounded) {
				return nil, fmt.Errorf("compiler: portfolio racer %q: %w", racers[c], e)
			}
		}
		// Unreachable when the bound contract holds: the eventual winner
		// never observes itself as unbeatable.
		return nil, errors.New("compiler: every portfolio racer was bounded out")
	}

	var losers []string
	for c := 0; c < n; c++ {
		switch {
		case c == winIdx:
			recordPortfolioOutcome(racers[c], "win")
		case outcomes[c].res != nil:
			recordPortfolioOutcome(racers[c], "loss")
			losers = append(losers, racers[c])
		case errors.Is(outcomes[c].err, core.ErrBounded):
			recordPortfolioOutcome(racers[c], "bounded")
			losers = append(losers, racers[c])
		default:
			recordPortfolioOutcome(racers[c], "error")
		}
	}
	if opts.Ledger != nil {
		opts.Ledger.Record(PortfolioShape(mh), racers[winIdx], losers)
	}
	raceSpan.SetAttr("winner", racers[winIdx])
	win.Method = racers[winIdx]
	return win, nil
}

// launchOrder maps the ledger's ranking back onto canonical indices,
// ignoring anything the ledger invented and appending anything it
// dropped (in canonical order), so a misbehaving ledger can reorder but
// never exclude a racer.
func launchOrder(racers, ranked []string) []int {
	idx := make(map[string]int, len(racers))
	for i, spec := range racers {
		idx[spec] = i
	}
	used := make([]bool, len(racers))
	order := make([]int, 0, len(racers))
	for _, spec := range ranked {
		if i, ok := idx[spec]; ok && !used[i] {
			used[i] = true
			order = append(order, i)
		}
	}
	for i := range racers {
		if !used[i] {
			order = append(order, i)
		}
	}
	return order
}

// Package-level portfolio counters feeding the service's /metrics
// surface. They register unconditionally there, so they live here with
// the races themselves rather than behind an optional ledger.
var (
	portfolioRaces    atomic.Int64
	portfolioOutcomes = struct {
		sync.Mutex
		m map[[2]string]int64
	}{m: make(map[[2]string]int64)}
)

// recordPortfolioOutcome bumps the (base method, outcome) counter; racer
// parameters are stripped to keep the label cardinality bounded.
func recordPortfolioOutcome(spec, outcome string) {
	name, _, _ := strings.Cut(spec, ":")
	portfolioOutcomes.Lock()
	portfolioOutcomes.m[[2]string{name, outcome}]++
	portfolioOutcomes.Unlock()
}

// PortfolioRaceCount reports how many portfolio races this process has
// started.
func PortfolioRaceCount() int64 { return portfolioRaces.Load() }

// PortfolioOutcome is one (method, outcome) counter reading; Outcome is
// "win", "loss", "bounded", or "error".
type PortfolioOutcome struct {
	Method  string `json:"method"`
	Outcome string `json:"outcome"`
	Count   int64  `json:"count"`
}

// PortfolioOutcomes snapshots the per-(method, outcome) race counters,
// sorted by method then outcome.
func PortfolioOutcomes() []PortfolioOutcome {
	portfolioOutcomes.Lock()
	out := make([]PortfolioOutcome, 0, len(portfolioOutcomes.m))
	for k, v := range portfolioOutcomes.m {
		out = append(out, PortfolioOutcome{Method: k[0], Outcome: k[1], Count: v})
	}
	portfolioOutcomes.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Method != out[j].Method {
			return out[i].Method < out[j].Method
		}
		return out[i].Outcome < out[j].Outcome
	})
	return out
}
