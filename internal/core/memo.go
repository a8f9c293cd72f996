package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/fermion"
	"repro/internal/lru"
)

// The build memo caches completed HATT constructions so repeated
// compilations of the same Hamiltonian — the common case for batch and
// multi-tenant serving, where many requests name the same model — skip
// the O(N³) greedy search. Only the merge schedule is cached: every hit
// replays it through a fresh builder (O(N) merges), so callers always
// receive their own Tree and Mapping and may mutate them freely. The memo
// is guarded by a RWMutex and safe for concurrent Build calls.
//
// Entries are keyed by a content fingerprint of the Hamiltonian (modes
// plus every monomial index set, FNV-1a) and the tie-break policy, the
// only two inputs the construction depends on; the worker count changes
// wall time, never the schedule.
//
// Concurrent misses on the same key are single-flighted: the first
// caller runs the search while the rest wait and replay its stored
// schedule, so a batch of identical requests really does pay for one
// construction. If the leader fails (cancellation), a waiter takes over.

type buildMemoKey struct {
	fp uint64
	tb TieBreak
}

type buildMemoEntry struct {
	// canon is the canonical key material the fingerprint was computed
	// over; hits verify it so a 64-bit hash collision degrades to a miss
	// instead of silently serving another Hamiltonian's schedule.
	canon  []int
	merges [][3]int
}

// buildMemoLimit bounds the entry count. Eviction is LRU, one entry at a
// time: under sustained batch workloads that cycle through more than
// buildMemoLimit distinct Hamiltonians, the hot ones stay resident
// instead of being wiped wholesale whenever the map fills. Entries are
// tiny — 3N ints — so the bound is generous.
const buildMemoLimit = 256

var buildMemo = struct {
	sync.Mutex
	c *lru.Cache[buildMemoKey, buildMemoEntry]
}{c: lru.New[buildMemoKey, buildMemoEntry](buildMemoLimit)}

// inflight tracks keys whose construction is currently running; the
// channel closes when the leader finishes (successfully or not).
var inflight = struct {
	sync.Mutex
	m map[buildMemoKey]chan struct{}
}{m: make(map[buildMemoKey]chan struct{})}

// buildSearches counts full constructions (misses that ran the search);
// tests use it to assert single-flight behavior.
var buildSearches atomic.Int64

// ResetBuildCache empties the build memo. Benchmarks that time the
// construction itself call this between runs; production callers never
// need to.
func ResetBuildCache() {
	buildMemo.Lock()
	buildMemo.c.Reset()
	buildMemo.Unlock()
}

// canonicalKey flattens the inputs the HATT construction reads — the
// mode count and the monomial index sets, in term order — into one
// self-delimiting slice (each set is prefixed with its length).
func canonicalKey(mh *fermion.MajoranaHamiltonian) []int {
	out := []int{mh.Modes}
	for _, t := range mh.Terms {
		if len(t.Indices) == 0 {
			continue // identity monomials are invisible to the oracle
		}
		out = append(out, len(t.Indices))
		out = append(out, t.Indices...)
	}
	return out
}

// fingerprint hashes a canonical key (FNV-1a).
func fingerprint(canon []int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range canon {
		u := uint64(v)
		for s := 0; s < 64; s += 8 {
			h ^= (u >> s) & 0xff
			h *= prime
		}
	}
	return h
}

func canonEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// memoLookup returns the cached merge schedule for (key, canon), if any,
// marking the entry most-recently-used; a fingerprint collision with
// different canonical material is a miss.
func memoLookup(key buildMemoKey, canon []int) (buildMemoEntry, bool) {
	buildMemo.Lock()
	e, ok := buildMemo.c.Get(key)
	buildMemo.Unlock()
	if ok && !canonEqual(e.canon, canon) {
		return buildMemoEntry{}, false
	}
	return e, ok
}

// memoAcquire resolves a key to either a cached entry (hit true) or
// leadership of its construction: the caller must run the search and
// call release once the result is stored (or the search failed).
// Concurrent misses block until the leader releases, then re-check the
// memo — or take over if the leader failed without storing.
func memoAcquire(ctx context.Context, key buildMemoKey, canon []int) (e buildMemoEntry, hit bool, release func(), err error) {
	for {
		if e, ok := memoLookup(key, canon); ok {
			return e, true, nil, nil
		}
		inflight.Lock()
		if ch, running := inflight.m[key]; running {
			inflight.Unlock()
			select {
			case <-ch:
				continue // leader finished; re-check the memo
			case <-ctx.Done():
				return buildMemoEntry{}, false, nil, ctx.Err()
			}
		}
		ch := make(chan struct{})
		inflight.m[key] = ch
		inflight.Unlock()
		return buildMemoEntry{}, false, func() {
			inflight.Lock()
			delete(inflight.m, key)
			inflight.Unlock()
			close(ch)
		}, nil
	}
}

// memoStore records a completed construction, evicting the
// least-recently-used entry when the memo is at capacity. A fingerprint
// collision overwrites the colliding entry (one-entry bucket semantics).
func memoStore(key buildMemoKey, canon []int, log [][3]int) {
	merges := make([][3]int, len(log))
	copy(merges, log)
	buildMemo.Lock()
	buildMemo.c.Put(key, buildMemoEntry{canon: canon, merges: merges})
	buildMemo.Unlock()
}

// replay reconstructs a Result from a cached merge schedule through a
// fresh builder, so each caller gets an independent tree and mapping.
func (e buildMemoEntry) replay(mh *fermion.MajoranaHamiltonian) *Result {
	return rebuild(newProblem(mh), e.merges).result("HATT")
}
