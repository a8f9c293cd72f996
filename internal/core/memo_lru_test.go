package core

import (
	"context"
	"testing"

	"repro/internal/fermion"
)

func memoLen() int {
	buildMemo.Lock()
	defer buildMemo.Unlock()
	return buildMemo.c.Len()
}

func TestBuildMemoLRUEviction(t *testing.T) {
	ResetBuildCache()
	defer ResetBuildCache()

	canonOf := func(i int) []int { return []int{i} }
	keyOf := func(i int) buildMemoKey { return buildMemoKey{fp: uint64(i), tb: TieFirst} }

	// Fill to capacity, then keep entry 0 hot while overflowing.
	for i := 0; i < buildMemoLimit; i++ {
		memoStore(keyOf(i), canonOf(i), [][3]int{{i, i, i}})
	}
	if n := memoLen(); n != buildMemoLimit {
		t.Fatalf("memo holds %d entries, want %d", n, buildMemoLimit)
	}
	if _, ok := memoLookup(keyOf(0), canonOf(0)); !ok {
		t.Fatal("entry 0 missing at capacity")
	}
	// Entry 1 is now the LRU; the next store must evict it — and only it.
	memoStore(keyOf(buildMemoLimit), canonOf(buildMemoLimit), nil)
	if n := memoLen(); n != buildMemoLimit {
		t.Fatalf("memo holds %d entries after overflow, want %d", n, buildMemoLimit)
	}
	if _, ok := memoLookup(keyOf(1), canonOf(1)); ok {
		t.Fatal("LRU entry 1 not evicted")
	}
	if _, ok := memoLookup(keyOf(0), canonOf(0)); !ok {
		t.Fatal("recently used entry 0 was evicted instead of the LRU")
	}
	if _, ok := memoLookup(keyOf(2), canonOf(2)); !ok {
		t.Fatal("entry 2 evicted even though capacity allowed keeping it")
	}

	// Re-storing an existing key refreshes in place, no eviction.
	memoStore(keyOf(2), canonOf(2), [][3]int{{9, 9, 9}})
	if n := memoLen(); n != buildMemoLimit {
		t.Fatalf("refresh grew the memo to %d entries", n)
	}
	if e, ok := memoLookup(keyOf(2), canonOf(2)); !ok || len(e.merges) != 1 || e.merges[0] != [3]int{9, 9, 9} {
		t.Fatalf("refresh did not replace the schedule: %+v ok=%v", e, ok)
	}

	ResetBuildCache()
	if n := memoLen(); n != 0 {
		t.Fatalf("ResetBuildCache left %d entries", n)
	}
	if _, ok := memoLookup(keyOf(0), canonOf(0)); ok {
		t.Fatal("ResetBuildCache left entry 0 resident")
	}
}

func TestBuildMemoHitAfterEvictionChurn(t *testing.T) {
	// End to end: a construction stays memoized across unrelated stores.
	ResetBuildCache()
	defer ResetBuildCache()

	h := fermion.NewHamiltonian(3)
	h.AddHermitian(1, fermion.Op{Mode: 0, Dagger: true}, fermion.Op{Mode: 1})
	h.AddHermitian(1, fermion.Op{Mode: 1, Dagger: true}, fermion.Op{Mode: 2})
	mh := h.Majorana(1e-12)

	before := buildSearches.Load()
	if _, err := Build(context.Background(), mh, Options{}); err != nil {
		t.Fatal(err)
	}
	// Churn the memo without filling it: the real entry must survive.
	for i := 0; i < buildMemoLimit/2; i++ {
		memoStore(buildMemoKey{fp: ^uint64(i), tb: TieFirst}, []int{-i - 1}, nil)
	}
	if _, err := Build(context.Background(), mh, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := buildSearches.Load() - before; got != 1 {
		t.Fatalf("ran %d searches, want 1 (second build must hit the memo)", got)
	}
}
