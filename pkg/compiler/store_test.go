package compiler

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/models"
	"repro/internal/store"
)

func TestOptionsDigestSemantics(t *testing.T) {
	base := NewOptions()
	if base.Digest() != NewOptions().Digest() {
		t.Fatal("default digests differ")
	}
	// Result-invariant knobs must not perturb the digest.
	for name, o := range map[string]Options{
		"parallelism": NewOptions(WithParallelism(7)),
		"progress":    NewOptions(WithProgress(func(ProgressEvent) {})),
		"trotter":     NewOptions(WithTrotterSteps(5), WithTrotterTime(2.5)),
	} {
		if o.Digest() != base.Digest() {
			t.Fatalf("%s changed the digest: %s vs %s", name, o.Digest(), base.Digest())
		}
	}
	// With a device set, the synthesis knobs shape the stored routed
	// summary, so each must change the digest.
	routed := NewOptions(WithDevice("montreal"))
	for name, o := range map[string]Options{
		"trotter steps": NewOptions(WithDevice("montreal"), WithTrotterSteps(2)),
		"trotter time":  NewOptions(WithDevice("montreal"), WithTrotterTime(0.5)),
		"term order":    NewOptions(WithDevice("montreal"), WithTermOrder(circuit.OrderGreedyOverlap)),
	} {
		if o.Digest() == routed.Digest() {
			t.Fatalf("routed %s did not change the digest", name)
		}
	}
	for name, o := range map[string]Options{
		"trotter steps": NewOptions(WithTrotterSteps(2)),
		"trotter time":  NewOptions(WithTrotterTime(0.5)),
		"term order":    NewOptions(WithTermOrder(circuit.OrderGreedyOverlap)),
	} {
		if o.Digest() != base.Digest() {
			t.Fatalf("unrouted %s changed the digest", name)
		}
	}
	// Result-affecting knobs must.
	for name, o := range map[string]Options{
		"beam width": NewOptions(WithBeamWidth(9)),
		"budget":     NewOptions(WithVisitBudget(123)),
		"anneal":     NewOptions(WithAnnealSchedule(10, 1.5, 0.1)),
		"tiebreak":   NewOptions(WithTieBreak(TieDepth)),
		"seed":       NewOptions(WithSeed(42)),
		"restarts":   NewOptions(WithAnnealRestarts(3)),
	} {
		if o.Digest() == base.Digest() {
			t.Fatalf("%s did not change the digest", name)
		}
	}
}

func TestCompileConsultsStore(t *testing.T) {
	s, err := store.Open(16, "")
	if err != nil {
		t.Fatal(err)
	}
	h, err := models.Resolve("hubbard:2x2")
	if err != nil {
		t.Fatal(err)
	}
	mh := h.Majorana(1e-12)
	ctx := context.Background()

	r1, err := Compile(ctx, "hatt", mh, WithStore(s))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first compile reported Cached")
	}
	if r1.Tree == nil {
		t.Fatal("fresh hatt compile should carry its tree")
	}

	r2, err := Compile(ctx, "hatt", mh, WithStore(s))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("second compile not served from the store")
	}
	if r2.Tree != nil {
		t.Fatal("cached result should not carry a tree")
	}
	for j := range r1.Mapping.Majoranas {
		if !r1.Mapping.Majoranas[j].Equal(r2.Mapping.Majoranas[j]) {
			t.Fatalf("M%d differs between fresh and cached results", j)
		}
	}
	if r2.PredictedWeight != r1.PredictedWeight || r2.Method != r1.Method {
		t.Fatalf("cached scalars differ: %+v vs %+v", r2, r1)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put", st)
	}

	// A different method spec is a different content address.
	r3, err := Compile(ctx, "jw", mh, WithStore(s))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("jw shared hatt's cache entry")
	}
	// So is a result-affecting option change on the same spec.
	r4, err := Compile(ctx, "anneal", mh, WithStore(s), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if r4.Cached {
		t.Fatal("anneal seed=1 hit an unpopulated entry")
	}
	r5, err := Compile(ctx, "anneal", mh, WithStore(s), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if r5.Cached {
		t.Fatal("anneal seed=2 incorrectly shared seed=1's entry")
	}
}

func TestCompileBatchConsultsStore(t *testing.T) {
	s, err := store.Open(16, "")
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Model: "hubbard:2x2", Spec: "jw"},
		{Model: "hubbard:2x2", Spec: "bk"},
	}
	for _, br := range CompileBatch(context.Background(), items, WithStore(s)) {
		if br.Err != nil {
			t.Fatalf("item %d: %v", br.Index, br.Err)
		}
		if br.Result.Cached {
			t.Fatalf("item %d cached on a cold store", br.Index)
		}
	}
	for _, br := range CompileBatch(context.Background(), items, WithStore(s)) {
		if br.Err != nil {
			t.Fatalf("item %d: %v", br.Index, br.Err)
		}
		if !br.Result.Cached {
			t.Fatalf("item %d not served from the store on the second batch", br.Index)
		}
	}
}
