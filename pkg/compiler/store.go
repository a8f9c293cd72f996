package compiler

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/fermion"
	"repro/internal/obs"
	"repro/internal/store"
)

// Store is the content-addressed result cache Compile consults when one
// is attached with WithStore. *store.Store is the production
// implementation (bounded LRU plus optional disk tier); the interface is
// narrow so tests can fake it.
//
// Implementations must be safe for concurrent use: concurrent Compile
// calls sharing one store all consult it at once.
type Store interface {
	Get(key store.Key) (*store.Entry, bool)
	Put(key store.Key, entry *store.Entry)
}

// ContextStore is the optional context-aware extension of Store. A
// store whose Get may leave the process — the fleet wrapper dials peers
// — implements GetContext so the compile request's cancellation reaches
// the remote fetch; Compile type-asserts for it and falls back to plain
// Get. In-memory stores have no reason to implement it.
type ContextStore interface {
	Store
	GetContext(ctx context.Context, key store.Key) (*store.Entry, bool)
}

// WithStore attaches a content-addressed result store. Before running a
// method, Compile looks up (Hamiltonian fingerprint, method spec,
// Options.Digest) and returns the stored mapping on a hit — skipping the
// search entirely and marking the Result as Cached; on a miss the
// compiled result is stored for the next caller. Results served from a
// store carry a nil Tree: only the mapping, its scalar outcome fields
// and, for a routed compile, the routed metrics cross the cache
// boundary.
func WithStore(s Store) Option { return func(o *Options) { o.Store = s } }

// Digest returns a canonical encoding of the options that can change a
// compiled result, used as the third component of the store key. Two
// Options values with equal digests are guaranteed to compile every
// (Hamiltonian, spec) pair identically, so they may share cache entries.
//
// Deliberately excluded: Parallelism (the engine's reproducibility
// guarantee — a fixed seed compiles byte-identically at every worker
// count), Progress (an observer), and Store itself.
//
// The target device IS folded in (as ";dev=<spec-or-fingerprint>"),
// together with the synthesis knobs TrotterSteps, TrotterTime and
// TermOrder: a routed entry keeps the routed summary next to the
// mapping, and the summary depends on all four. Without a device the
// synthesis knobs shape nothing the store holds, so they stay out, and
// unrouted digests keep the form earlier versions wrote to disk.
func (o Options) Digest() string {
	dev, _ := o.routingDevice()
	return o.digest(dev)
}

// digest is Digest over the device routingDevice already resolved, so
// a compile looks its device up once.
func (o Options) digest(dev *arch.Device) string {
	d := fmt.Sprintf("v1;bw=%d;vb=%d;ai=%d;ats=%g;ate=%g;tb=%d;seed=%d;ar=%d",
		o.BeamWidth, o.VisitBudget, o.AnnealIters, o.AnnealTStart, o.AnnealTEnd,
		o.TieBreak, o.Seed, o.AnnealRestarts)
	if dd := o.deviceDigest(dev); dd != "" {
		d += fmt.Sprintf(";dev=%s;ts=%d;tt=%g;to=%d", dd, o.TrotterSteps, o.TrotterTime, o.TermOrder)
	}
	return d
}

// storeKey assembles the content address of one compilation, given the
// device routingDevice resolved from o.
func storeKey(spec string, mh *fermion.MajoranaHamiltonian, o Options, dev *arch.Device) store.Key {
	return store.Key{Hamiltonian: mh.Fingerprint(), Spec: spec, Options: o.digest(dev)}
}

// storeLookup consults the attached store. The caller's context rides
// along when the store supports it (ContextStore), so cancelling the
// compile aborts an in-flight peer fetch too.
func storeLookup(ctx context.Context, key store.Key, o Options) (*store.Entry, bool) {
	if cs, hasCtx := o.Store.(ContextStore); hasCtx {
		return cs.GetContext(ctx, key)
	}
	return o.Store.Get(key)
}

// cachedResult converts a stored entry back into a Result.
func cachedResult(e *store.Entry) *Result {
	return &Result{
		Method:          e.Method,
		Mapping:         e.Mapping,
		PredictedWeight: e.PredictedWeight,
		Optimal:         e.Optimal,
		Visited:         e.Visited,
		Cached:          true,
	}
}

// storeSave records a result of the named method, and its routed
// summary when it has one, under key.
func storeSave(ctx context.Context, key store.Key, name string, res *Result, o Options) {
	_, putSpan := obs.StartSpan(ctx, "store.put")
	putSpan.SetAttr("method", name)
	e := &store.Entry{
		Method:          res.Method,
		Mapping:         res.Mapping,
		PredictedWeight: res.PredictedWeight,
		Optimal:         res.Optimal,
		Visited:         res.Visited,
	}
	if res.Routed != nil {
		e.Routed = res.Routed.summary()
	}
	o.Store.Put(key, e)
	putSpan.End()
}
