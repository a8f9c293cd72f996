package compiler

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/fermion"
	"repro/internal/models"
)

func portfolioModel(t testing.TB, spec string) *fermion.MajoranaHamiltonian {
	t.Helper()
	h, err := models.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	return h.Majorana(1e-12)
}

func portfolioMappingText(t *testing.T, res *Result) string {
	t.Helper()
	var sb strings.Builder
	if err := res.Mapping.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestPortfolioDeterministicAcrossWorkers is the acceptance criterion:
// portfolio on molecule:14 with a fixed seed returns a byte-identical
// winner at workers 1, 4, and GOMAXPROCS, despite bound-driven
// abandonment firing at different moments on every run.
func TestPortfolioDeterministicAcrossWorkers(t *testing.T) {
	mh := portfolioModel(t, "molecule:14")
	ctx := context.Background()
	var wantText, wantMethod string
	var wantWeight int
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		res, err := Compile(ctx, "portfolio", mh,
			WithSeed(11),
			WithAnnealSchedule(3000, 0, 0),
			WithParallelism(workers),
		)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := res.Mapping.Verify(); err != nil {
			t.Fatalf("workers=%d: invalid winner: %v", workers, err)
		}
		text := portfolioMappingText(t, res)
		if wantText == "" {
			wantText, wantMethod, wantWeight = text, res.Method, res.PredictedWeight
			continue
		}
		if text != wantText {
			t.Errorf("workers=%d: winner mapping diverged from workers=1", workers)
		}
		if res.Method != wantMethod || res.PredictedWeight != wantWeight {
			t.Errorf("workers=%d: winner (%s, %d), want (%s, %d)",
				workers, res.Method, res.PredictedWeight, wantMethod, wantWeight)
		}
	}
}

// TestPortfolioPartialsMonotone pins the anytime contract: partial
// weights strictly decrease, every partial passes the same algebra
// re-validation the disk tier uses, and the final winner is at least
// as good as the last partial.
func TestPortfolioPartialsMonotone(t *testing.T) {
	mh := portfolioModel(t, "molecule:10")
	var mu sync.Mutex
	var weights []int
	res, err := Compile(context.Background(), "portfolio:hatt+anneal", mh,
		WithSeed(3),
		WithAnnealSchedule(20000, 0, 0),
		WithPartial(func(p PartialResult) {
			mu.Lock()
			defer mu.Unlock()
			if p.Mapping == nil || p.Method == "" {
				t.Errorf("partial missing mapping or method: %+v", p)
				return
			}
			if err := p.Mapping.Verify(); err != nil {
				t.Errorf("partial from %s fails anticommutation validation: %v", p.Method, err)
			}
			if got := p.Mapping.HamiltonianWeight(mh); got != p.Weight {
				t.Errorf("partial from %s reports weight %d, mapping weighs %d", p.Method, p.Weight, got)
			}
			weights = append(weights, p.Weight)
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(weights) == 0 {
		t.Fatal("expected at least one partial delivery")
	}
	for i := 1; i < len(weights); i++ {
		if weights[i] >= weights[i-1] {
			t.Fatalf("partial weights not strictly decreasing: %v", weights)
		}
	}
	if res.PredictedWeight > weights[len(weights)-1] {
		t.Fatalf("final weight %d worse than last partial %d", res.PredictedWeight, weights[len(weights)-1])
	}
}

func TestPortfolioSpecParsing(t *testing.T) {
	for _, spec := range []string{
		"portfolio:",
		"portfolio:+",
		"portfolio:hatt+",
		"portfolio:nope",
		"portfolio:beam:0",
		"portfolio:hatt+hatt",
		"portfolio:portfolio",
		"portfolio:portfolio:hatt+anneal",
	} {
		if _, err := Resolve(spec); err == nil {
			t.Errorf("Resolve(%q): expected error", spec)
		}
	}
	for _, spec := range []string{
		"portfolio",
		"portfolio:hatt",
		"portfolio:hatt+beam:8+anneal",
		"portfolio:jw+bk",
	} {
		if _, err := Resolve(spec); err != nil {
			t.Errorf("Resolve(%q): %v", spec, err)
		}
	}
}

// orderHungryLedger ranks adversarially (reverse order) and records
// what it saw, proving the ledger steers scheduling without touching
// the result.
type orderHungryLedger struct {
	mu      sync.Mutex
	ranks   int
	winners []string
	losers  [][]string
}

func (l *orderHungryLedger) Rank(shape string, specs []string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	rev := make([]string, len(specs))
	for i, s := range specs {
		rev[len(specs)-1-i] = s
	}
	l.ranks++
	return rev
}

func (l *orderHungryLedger) Record(shape, winner string, losers []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.winners = append(l.winners, winner)
	l.losers = append(l.losers, losers)
}

// TestPortfolioLedgerSchedulingOnly proves the bandit layer cannot
// change the compiled bytes: an adversarial reverse-ranking ledger
// yields the identical winner, and the race outcome is recorded.
func TestPortfolioLedgerSchedulingOnly(t *testing.T) {
	mh := portfolioModel(t, "molecule:10")
	ctx := context.Background()
	plain, err := Compile(ctx, "portfolio:hatt+beam:2+anneal", mh,
		WithSeed(5), WithAnnealSchedule(2000, 0, 0), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	led := &orderHungryLedger{}
	steered, err := Compile(ctx, "portfolio:hatt+beam:2+anneal", mh,
		WithSeed(5), WithAnnealSchedule(2000, 0, 0), WithParallelism(2),
		WithMethodLedger(led))
	if err != nil {
		t.Fatal(err)
	}
	if portfolioMappingText(t, plain) != portfolioMappingText(t, steered) {
		t.Fatal("ledger ranking changed the compiled mapping")
	}
	if plain.Method != steered.Method {
		t.Fatalf("ledger ranking changed the winner: %s vs %s", plain.Method, steered.Method)
	}
	led.mu.Lock()
	defer led.mu.Unlock()
	if led.ranks != 1 || len(led.winners) != 1 {
		t.Fatalf("ledger saw %d ranks, %d records; want 1 and 1", led.ranks, len(led.winners))
	}
	if led.winners[0] != steered.Method {
		t.Fatalf("ledger recorded winner %q, race returned %q", led.winners[0], steered.Method)
	}
}

// TestPortfolioCountersAdvance sanity-checks the metrics feed: races
// increment the package counter and outcomes accumulate per method.
func TestPortfolioCountersAdvance(t *testing.T) {
	before := PortfolioRaceCount()
	mh := portfolioModel(t, "molecule:8")
	if _, err := Compile(context.Background(), "portfolio:hatt+jw", mh); err != nil {
		t.Fatal(err)
	}
	if after := PortfolioRaceCount(); after <= before {
		t.Fatalf("race count %d -> %d, want increase", before, after)
	}
	total := int64(0)
	for _, o := range PortfolioOutcomes() {
		if o.Count < 1 {
			t.Errorf("non-positive outcome counter %+v", o)
		}
		total += o.Count
	}
	if total < 2 {
		t.Fatalf("expected at least 2 recorded outcomes, got %d", total)
	}
}

// TestPortfolioWinnerMethodIsRacerSpec pins the anytime API surface:
// the winner's Method is the racer spec, usable directly as a method
// spec for a follow-up compile.
func TestPortfolioWinnerMethodIsRacerSpec(t *testing.T) {
	mh := portfolioModel(t, "molecule:8")
	res, err := Compile(context.Background(), "portfolio:hatt+beam:2", mh)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "hatt" && res.Method != "beam:2" {
		t.Fatalf("winner method %q is not one of the racer specs", res.Method)
	}
	if _, err := Resolve(res.Method); err != nil {
		t.Fatalf("winner method %q does not resolve: %v", res.Method, err)
	}
}
