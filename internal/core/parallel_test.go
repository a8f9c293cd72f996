package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/fermion"
)

// mappingBytes serializes a result's mapping for byte-identity checks.
func mappingBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Mapping.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBuildIdenticalAtAnyWorkerCount(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		mh := randomFermionic(5, 15, seed)
		ResetBuildCache()
		want := run(t, Build, mh, Options{})
		for _, workers := range []int{1, 2, 8} {
			ResetBuildCache() // search at this worker count, not a memo replay
			got := run(t, Build, mh, Options{Workers: workers})
			if got.PredictedWeight != want.PredictedWeight {
				t.Fatalf("seed %d workers %d: weight %d, want %d",
					seed, workers, got.PredictedWeight, want.PredictedWeight)
			}
			if !bytes.Equal(mappingBytes(t, got), mappingBytes(t, want)) {
				t.Fatalf("seed %d workers %d: mapping differs from sequential", seed, workers)
			}
		}
	}
}

func TestBuildBeamDeterministicAcrossWorkerCounts(t *testing.T) {
	ResetBuildCache()
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		mh := randomFermionic(5, 15, seed)
		want, err := Beam(ctx, mh, Options{Width: 4, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := Beam(ctx, mh, Options{Width: 4, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.PredictedWeight != want.PredictedWeight ||
				!bytes.Equal(mappingBytes(t, got), mappingBytes(t, want)) {
				t.Fatalf("seed %d workers %d: beam result differs from sequential", seed, workers)
			}
		}
	}
}

func TestBeamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mh := randomFermionic(5, 15, 1)
	if _, err := Beam(ctx, mh, Options{Width: 4, Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAnnealRestartsDeterministicAcrossWorkerCounts(t *testing.T) {
	ctx := context.Background()
	mh := randomFermionic(4, 10, 1)
	base := Options{Iters: 400, Seed: 7, Restarts: 4}
	want, err := Anneal(ctx, mh, func() Options { o := base; o.Workers = 1; return o }())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		o := base
		o.Workers = workers
		got, err := Anneal(ctx, mh, o)
		if err != nil {
			t.Fatal(err)
		}
		if got.PredictedWeight != want.PredictedWeight ||
			!bytes.Equal(mappingBytes(t, got), mappingBytes(t, want)) {
			t.Fatalf("workers %d: anneal result differs from sequential", workers)
		}
	}
}

func TestAnnealSingleRestartMatchesLegacySeed(t *testing.T) {
	// Restarts=1 must reproduce the pre-restart behavior: one chain with
	// the caller's seed.
	ctx := context.Background()
	mh := randomFermionic(4, 10, 2)
	a, err := Anneal(ctx, mh, Options{Iters: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(ctx, mh, Options{Iters: 300, Seed: 5, Restarts: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mappingBytes(t, a), mappingBytes(t, b)) {
		t.Fatal("Restarts=1 does not reproduce the single-chain result")
	}
}

func TestAnnealRestartsNeverWorseThanSingleChain(t *testing.T) {
	ctx := context.Background()
	mh := randomFermionic(4, 12, 3)
	single, err := Anneal(ctx, mh, Options{Iters: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Anneal(ctx, mh, Options{Iters: 400, Seed: 1, Restarts: 6, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if multi.PredictedWeight > single.PredictedWeight {
		t.Fatalf("restarts made the result worse: %d > %d (chain 0 is included)",
			multi.PredictedWeight, single.PredictedWeight)
	}
}

func TestAnnealRestartsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mh := randomFermionic(4, 10, 1)
	if _, err := Anneal(ctx, mh, Options{Iters: 400, Restarts: 4, Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBuildMemoConcurrentAccess(t *testing.T) {
	// Hammer Build from many goroutines over a small set of Hamiltonians:
	// results must agree with a construction on an empty memo, and each
	// caller must get its own tree — memo hits replay, never share.
	ResetBuildCache()
	seeds := []int64{1, 2, 3}
	mhs := make([]*fermion.MajoranaHamiltonian, len(seeds))
	wants := make([][]byte, len(seeds))
	weights := make([]int, len(seeds))
	for i, seed := range seeds {
		mhs[i] = randomFermionic(5, 15, seed)
		ref := run(t, Build, mhs[i], Options{})
		wants[i] = mappingBytes(t, ref)
		weights[i] = ref.PredictedWeight
	}
	ResetBuildCache()

	const goroutines = 16
	const iters = 20
	var wg sync.WaitGroup
	results := make([][]*Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				res, err := Build(context.Background(), mhs[(g+it)%len(mhs)], Options{})
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], res)
			}
		}(g)
	}
	wg.Wait()

	seen := make(map[*Result]bool)
	for g := 0; g < goroutines; g++ {
		for it, res := range results[g] {
			i := (g + it) % len(mhs)
			if res.PredictedWeight != weights[i] {
				t.Fatalf("goroutine %d case %d: weight %d, want %d", g, i, res.PredictedWeight, weights[i])
			}
			if !bytes.Equal(mappingBytes(t, res), wants[i]) {
				t.Fatalf("goroutine %d case %d: mapping differs under concurrency", g, i)
			}
			if seen[res] {
				t.Fatal("memo returned a shared *Result; hits must replay")
			}
			seen[res] = true
		}
	}
}

func TestBuildMemoSingleFlight(t *testing.T) {
	// Concurrent misses on the same Hamiltonian must run the search once:
	// one leader constructs, the waiters replay its stored schedule.
	ResetBuildCache()
	mh := randomFermionic(5, 15, 9)
	before := buildSearches.Load()
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := Build(context.Background(), mh, Options{})
			if err != nil {
				t.Error(err)
			}
			results[g] = r
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := buildSearches.Load() - before; got != 1 {
		t.Fatalf("%d searches ran for one key, want 1 (single-flight)", got)
	}
	want := mappingBytes(t, results[0])
	for g, r := range results[1:] {
		if !bytes.Equal(mappingBytes(t, r), want) {
			t.Fatalf("goroutine %d: mapping differs", g+1)
		}
	}
}

func TestBuildMemoHitReplaysFreshTree(t *testing.T) {
	ResetBuildCache()
	mh := randomFermionic(4, 10, 1)
	a := run(t, Build, mh, Options{})
	b := run(t, Build, mh, Options{}) // memo hit
	if a.Tree == b.Tree || a.Mapping == b.Mapping {
		t.Fatal("memo hit shared a tree or mapping with an earlier caller")
	}
	if !bytes.Equal(mappingBytes(t, a), mappingBytes(t, b)) {
		t.Fatal("memo hit produced a different mapping")
	}
	// Mutating one caller's result must not leak into the next hit.
	b.Mapping.Name = "mutated"
	c := run(t, Build, mh, Options{})
	if c.Mapping.Name != "HATT" {
		t.Fatalf("memo served a mutated mapping (name %q)", c.Mapping.Name)
	}
}

func TestBuildMemoCollisionDegradesToMiss(t *testing.T) {
	// Two Hamiltonians colliding on the 64-bit fingerprint must not share
	// a schedule: a hit requires the canonical key material to match.
	ResetBuildCache()
	key := buildMemoKey{fp: 42}
	memoStore(key, []int{1, 2, 3}, [][3]int{{0, 1, 2}})
	if _, ok := memoLookup(key, []int{9, 9}); ok {
		t.Fatal("colliding fingerprint with different canonical key served a hit")
	}
	if _, ok := memoLookup(key, []int{1, 2, 3}); !ok {
		t.Fatal("matching canonical key missed")
	}
}

func TestBuildMemoDistinguishesTieBreaks(t *testing.T) {
	ResetBuildCache()
	// The two tie-breaks build different trees here (weights 77 and 78),
	// so a memo key that dropped the tie-break would serve the wrong one.
	mh := randomFermionic(6, 18, 1)
	first := run(t, Build, mh, Options{TieBreak: TieFirst})
	depth := run(t, Build, mh, Options{TieBreak: TieDepth})
	// Each reference runs on an empty memo, so both are fresh searches.
	ResetBuildCache()
	wantFirst := run(t, Build, mh, Options{TieBreak: TieFirst})
	ResetBuildCache()
	wantDepth := run(t, Build, mh, Options{TieBreak: TieDepth})
	if bytes.Equal(mappingBytes(t, wantFirst), mappingBytes(t, wantDepth)) {
		t.Fatal("TieFirst and TieDepth agree on this input; the test cannot detect a collision")
	}
	if !bytes.Equal(mappingBytes(t, first), mappingBytes(t, wantFirst)) {
		t.Fatal("TieFirst memo entry corrupted")
	}
	if !bytes.Equal(mappingBytes(t, depth), mappingBytes(t, wantDepth)) {
		t.Fatal("TieDepth memo entry collided with TieFirst")
	}
}
