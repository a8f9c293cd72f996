package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/models"
)

func mappingText(t *testing.T, m *mapping.Mapping) string {
	t.Helper()
	var sb strings.Builder
	if err := m.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func boundTestModel(t *testing.T, spec string) *fermion.MajoranaHamiltonian {
	t.Helper()
	h, err := models.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	return h.Majorana(1e-12)
}

func TestBoundPackingLexOrder(t *testing.T) {
	b := NewBound()
	if _, _, ok := b.Best(); ok {
		t.Fatal("fresh bound should hold no incumbent")
	}
	if b.Unbeatable(1<<40, 0) {
		t.Fatal("empty bound must beat nothing")
	}
	b.Offer(10, 2)
	if w, p, ok := b.Best(); !ok || w != 10 || p != 2 {
		t.Fatalf("Best = (%d,%d,%v), want (10,2,true)", w, p, ok)
	}
	// Same weight, earlier position wins lexicographically.
	b.Offer(10, 1)
	if w, p, _ := b.Best(); w != 10 || p != 1 {
		t.Fatalf("Best = (%d,%d), want (10,1)", w, p)
	}
	// Worse offers are ignored.
	b.Offer(10, 3)
	b.Offer(11, 0)
	if w, p, _ := b.Best(); w != 10 || p != 1 {
		t.Fatalf("Best after worse offers = (%d,%d), want (10,1)", w, p)
	}
	// A search at position 0 with partial weight 10 could still tie-win.
	if b.Unbeatable(10, 0) {
		t.Fatal("(10,0) is lexicographically ahead of the incumbent (10,1)")
	}
	// The incumbent itself is never unbeatable by its own bound.
	if b.Unbeatable(10, 1) {
		t.Fatal("the incumbent must not abandon itself")
	}
	// Equal weight, later position loses the tie.
	if !b.Unbeatable(10, 2) {
		t.Fatal("(10,2) cannot beat (10,1)")
	}
	if !b.Unbeatable(11, 0) {
		t.Fatal("(11,0) cannot beat (10,1)")
	}
	b.Offer(3, 5)
	if w, p, _ := b.Best(); w != 3 || p != 5 {
		t.Fatalf("Best = (%d,%d), want (3,5)", w, p)
	}
}

func TestBoundNilIsInert(t *testing.T) {
	var b *Bound
	b.Offer(1, 0)
	if b.Unbeatable(0, 0) {
		t.Fatal("nil bound must never abandon")
	}
	if _, _, ok := b.Best(); ok {
		t.Fatal("nil bound holds nothing")
	}
}

func TestBoundConcurrentOffersConverge(t *testing.T) {
	b := NewBound()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Offer(100+(i+g)%50, g)
			}
		}(g)
	}
	wg.Wait()
	// The minimum offered weight is 100, first offered by several racers;
	// the packed CAS-min must land on weight 100 regardless of timing.
	if w, _, _ := b.Best(); w != 100 {
		t.Fatalf("converged weight %d, want 100", w)
	}
}

// TestBoundedSearchesAbandon pins the whole-search abandonment contract:
// under a bound no search can beat, every bounded construction returns
// ErrBounded (and anneal, which has no monotone lower bound, returns its
// best-so-far instead).
func TestBoundedSearchesAbandon(t *testing.T) {
	mh := boundTestModel(t, "molecule:6")
	ctx := context.Background()

	tight := NewBound()
	tight.Offer(1, 0) // no real mapping reaches weight 1

	ResetBuildCache() // a memo hit would skip the bounded search
	if _, err := Build(ctx, mh, Options{Bound: tight, BoundPos: 1}); !errors.Is(err, ErrBounded) {
		t.Fatalf("hatt under a tight bound: err = %v, want ErrBounded", err)
	}
	if _, err := BuildUnopt(ctx, mh, Options{Bound: tight, BoundPos: 1}); !errors.Is(err, ErrBounded) {
		t.Fatalf("unopt scan under a tight bound: err = %v, want ErrBounded", err)
	}
	if _, err := Beam(ctx, mh, Options{Width: 3, Bound: tight, BoundPos: 1}); !errors.Is(err, ErrBounded) {
		t.Fatalf("beam under a tight bound: err = %v, want ErrBounded", err)
	}
	res, err := Anneal(ctx, mh, Options{Iters: 5000, Bound: tight, BoundPos: 1})
	if err != nil || res == nil {
		t.Fatalf("bounded anneal must still return its best-so-far, got (%v, %v)", res, err)
	}
	if got := EvaluateTree(mh, res.Tree); got != res.PredictedWeight {
		t.Fatalf("bounded anneal result inconsistent: evaluate %d, predicted %d", got, res.PredictedWeight)
	}
}

// TestBoundedSearchesIdenticalWhenWinning pins the determinism story:
// a search racing under a bound it ultimately beats selects exactly the
// merges the unbounded search selects.
func TestBoundedSearchesIdenticalWhenWinning(t *testing.T) {
	mh := boundTestModel(t, "molecule:8")
	ctx := context.Background()

	ResetBuildCache()
	plain, err := Build(ctx, mh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loose := NewBound()
	loose.Offer(plain.PredictedWeight+100, 3) // beatable incumbent
	ResetBuildCache()
	bounded, err := Build(ctx, mh, Options{Bound: loose, BoundPos: 0})
	if err != nil {
		t.Fatal(err)
	}
	if mappingText(t, plain.Mapping) != mappingText(t, bounded.Mapping) {
		t.Fatal("winning bounded search diverged from the unbounded construction")
	}

	plainBeam, err := Beam(ctx, mh, Options{Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	loose2 := NewBound()
	loose2.Offer(plainBeam.PredictedWeight+100, 3)
	boundedBeam, err := Beam(ctx, mh, Options{Width: 3, Bound: loose2, BoundPos: 0})
	if err != nil {
		t.Fatal(err)
	}
	if mappingText(t, plainBeam.Mapping) != mappingText(t, boundedBeam.Mapping) {
		t.Fatal("winning bounded beam diverged from the unbounded beam")
	}
}

// TestAnnealOnImprove pins the anytime surface: improvements arrive
// monotonically non-increasing per chain, every delivered tree evaluates
// to its reported weight, and the final result is at least as good as
// the last delivery.
func TestAnnealOnImprove(t *testing.T) {
	mh := boundTestModel(t, "molecule:8")
	var mu sync.Mutex
	var weights []int
	res, err := Anneal(context.Background(), mh, Options{
		Iters: 20000,
		Seed:  7,
		OnImprove: func(r *Result) {
			mu.Lock()
			defer mu.Unlock()
			if got := EvaluateTree(mh, r.Tree); got != r.PredictedWeight {
				t.Errorf("improvement weight %d, tree evaluates to %d", r.PredictedWeight, got)
			}
			weights = append(weights, r.PredictedWeight)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(weights) == 0 {
		t.Fatal("expected at least the start-tree improvement")
	}
	for i := 1; i < len(weights); i++ {
		if weights[i] >= weights[i-1] {
			t.Fatalf("improvements not strictly decreasing: %v", weights)
		}
	}
	if res.PredictedWeight > weights[len(weights)-1] {
		t.Fatalf("final weight %d worse than last improvement %d", res.PredictedWeight, weights[len(weights)-1])
	}
}
