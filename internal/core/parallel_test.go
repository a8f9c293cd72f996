package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
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

func TestBuildBeamDeterministicAcrossWorkerCounts(t *testing.T) {
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
