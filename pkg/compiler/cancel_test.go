package compiler

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/models"
)

// TestPreCancelledContext checks that every long-running method refuses a
// context that is already dead.
func TestPreCancelledContext(t *testing.T) {
	mh := testMajorana(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range []string{"anneal", "fh", "beam:4", "hatt"} {
		res, err := Compile(ctx, spec, mh)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Compile(%q) with cancelled ctx: res=%v err=%v, want context.Canceled", spec, res, err)
		}
	}
}

// cancelPromptly runs a compilation that would take far longer than the
// context deadline and asserts it returns ctx.Err() within the grace
// window rather than running to completion.
func cancelPromptly(t *testing.T, spec string, opts ...Option) {
	t.Helper()
	mh := models.FermiHubbard(2, 3, 1.0, 4.0).Majorana(1e-12)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Compile(ctx, spec, mh, opts...)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Compile(%q): res=%v err=%v, want context.DeadlineExceeded", spec, res, err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("Compile(%q): took %v after cancellation, want prompt return", spec, elapsed)
	}
}

func TestCancelMidAnneal(t *testing.T) {
	// ~10M mutation attempts would run for minutes; the deadline must cut
	// the schedule off within one iteration.
	cancelPromptly(t, "anneal", WithAnnealSchedule(10_000_000, 0, 0))
}

func TestCancelMidExhaustive(t *testing.T) {
	// An unlimited-budget exhaustive search on 12 modes is intractable;
	// the deadline must unwind the recursion within one state expansion.
	cancelPromptly(t, "fh:0")
}

func TestCancelMidBeam(t *testing.T) {
	mh := models.FermiHubbard(3, 4, 1.0, 4.0).Majorana(1e-12)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Compile(ctx, "beam:64", mh)
	elapsed := time.Since(start)
	// A wide beam on 24 modes takes far longer than 20ms; but if this
	// machine somehow finishes in time, a valid result is also correct.
	if err == nil {
		if res.PredictedWeight <= 0 {
			t.Fatal("beam finished but returned a bad result")
		}
		t.Skip("beam finished before the deadline on this machine")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Compile(beam): err=%v, want context.DeadlineExceeded", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("Compile(beam): took %v after cancellation, want prompt return", elapsed)
	}
}
