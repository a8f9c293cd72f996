package compiler

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/fermion"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/store"
)

func deviceTestMH(t *testing.T, spec string) *fermion.MajoranaHamiltonian {
	t.Helper()
	h, err := models.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	return h.Majorana(1e-12)
}

func TestCompileWithDevice(t *testing.T) {
	mh := deviceTestMH(t, "hubbard:2x2")
	res, err := Compile(context.Background(), "hatt", mh, WithDevice("montreal"))
	if err != nil {
		t.Fatal(err)
	}
	r := res.Routed
	if r == nil {
		t.Fatal("no routed metrics")
	}
	if r.Device != "Montreal" || r.PhysQubits != 27 {
		t.Errorf("routed onto %q (%d qubits)", r.Device, r.PhysQubits)
	}
	c, err := r.Circuit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.CNOTs <= 0 || r.Depth <= 0 || c.CNOTCount() != r.CNOTs {
		t.Errorf("routed metrics empty or off the circuit: %+v", r)
	}
	if len(r.FinalLayout) != res.Mapping.Qubits() {
		t.Errorf("layout covers %d logical qubits, want %d", len(r.FinalLayout), res.Mapping.Qubits())
	}
	d, _ := arch.Lookup("montreal")
	if err := arch.CheckCoupling(c, d); err != nil {
		t.Errorf("routed circuit violates coupling: %v", err)
	}
}

func TestCompileWithoutDeviceHasNoRouted(t *testing.T) {
	res, err := Compile(context.Background(), "hatt", deviceTestMH(t, "h2"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed != nil {
		t.Error("unrouted compile carries routed metrics")
	}
}

func TestCompileRejectsUnknownDevice(t *testing.T) {
	_, err := Compile(context.Background(), "hatt", deviceTestMH(t, "h2"), WithDevice("ibmq-nope"))
	if err == nil || !strings.Contains(err.Error(), "unknown device") {
		t.Fatalf("err = %v, want unknown-device error", err)
	}
}

// TestCompileRejectsTooSmallDevice pins that the size check runs before
// the store and the search: nothing starts, nothing is stored.
func TestCompileRejectsTooSmallDevice(t *testing.T) {
	st, err := store.Open(16, "")
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	var cerr error
	snap := traced(func(ctx context.Context) {
		_, cerr = Compile(ctx, "hatt", deviceTestMH(t, "hubbard:3x3"), WithStore(st), WithDevice("linear:4"),
			WithProgress(func(ev ProgressEvent) { events = append(events, ev) }))
	})
	if cerr == nil || !strings.Contains(cerr.Error(), "circuit needs 18 qubits, linear:4 has 4") {
		t.Fatalf("err = %v, want the too-small-device error", cerr)
	}
	if len(events) != 0 {
		t.Errorf("progress events %v, want none", events)
	}
	if n := spanCount(snap, "compile.search"); n != 0 {
		t.Errorf("%d compile.search spans, want 0", n)
	}
	if s := st.Stats(); s.Puts != 0 || s.Hits+s.Misses != 0 {
		t.Errorf("store stats = %+v, want untouched", s)
	}
}

func TestCompileWithDeviceSpec(t *testing.T) {
	d, err := arch.ParseDeviceJSON([]byte(`{"name":"ring6","qubits":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(context.Background(), "jw", deviceTestMH(t, "h2"), WithDeviceSpec(d))
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed == nil || res.Routed.Device != "ring6" {
		t.Fatalf("routed = %+v", res.Routed)
	}
	c, err := res.Routed.Circuit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.CheckCoupling(c, d); err != nil {
		t.Error(err)
	}
}

func TestDigestFoldsDevice(t *testing.T) {
	plain := NewOptions()
	routed := NewOptions(WithDevice("Montreal"))
	if plain.Digest() == routed.Digest() {
		t.Error("device not folded into digest")
	}
	if strings.Contains(plain.Digest(), "dev=") {
		t.Error("unrouted digest mentions a device")
	}
	// Equivalent spellings share the digest (and therefore cache entries).
	other := NewOptions(WithDevice(" montreal "))
	if routed.Digest() != other.Digest() {
		t.Errorf("digest not canonical: %q vs %q", routed.Digest(), other.Digest())
	}
	// Parametric specs canonicalize through the resolved device name.
	if a, b := NewOptions(WithDevice("linear:08")).Digest(), NewOptions(WithDevice("LINEAR:8")).Digest(); a != b {
		t.Errorf("parametric spellings diverge: %q vs %q", a, b)
	}
	// Custom devices digest by content fingerprint.
	d1, _ := arch.Lookup("linear:5")
	d2, _ := arch.Lookup("linear:6")
	c1 := NewOptions(WithDeviceSpec(d1))
	c2 := NewOptions(WithDeviceSpec(d2))
	if c1.Digest() == c2.Digest() {
		t.Error("different custom devices share a digest")
	}
	if !strings.Contains(c1.Digest(), "dev=custom:") {
		t.Errorf("custom device digest = %q", c1.Digest())
	}
}

// traced runs fn under a fresh tracer and returns the spans it recorded.
func traced(fn func(ctx context.Context)) obs.TraceSnapshot {
	tr := obs.NewTracer(4)
	ctx, root := obs.StartSpan(obs.WithTracer(context.Background(), tr), "test")
	fn(ctx)
	root.End()
	snap, _ := tr.Snapshot(root.Context().TraceID)
	return snap
}

// spanCount counts the spans called name whose attributes include attrs
// (key, value pairs).
func spanCount(snap obs.TraceSnapshot, name string, attrs ...string) int {
	n := 0
	for _, s := range snap.Spans {
		ok := s.Name == name
		for i := 0; ok && i+1 < len(attrs); i += 2 {
			ok = s.Attrs[attrs[i]] == attrs[i+1]
		}
		if ok {
			n++
		}
	}
	return n
}

// routedQASM derives r's circuit under a fresh tracer and returns its
// QASM with the number of circuit.route spans the derivation recorded.
func routedQASM(t *testing.T, r *Routed) (string, int) {
	t.Helper()
	var qasm string
	snap := traced(func(ctx context.Context) {
		c, err := r.Circuit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		qasm = c.QASM()
	})
	return qasm, spanCount(snap, "circuit.route")
}

// TestStoreServesRoutedByteIdentical is the acceptance property: a
// repeated routed compile is served from the store without synthesizing
// or routing, and its circuit, derived on demand, is byte-identical to
// the fresh compile's.
func TestStoreServesRoutedByteIdentical(t *testing.T) {
	st, err := store.Open(16, "")
	if err != nil {
		t.Fatal(err)
	}
	mh := deviceTestMH(t, "hubbard:2x2")
	opts := []Option{WithStore(st), WithDevice("montreal")}
	first, err := Compile(context.Background(), "hatt", mh, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Routed == nil {
		t.Fatalf("first compile: cached=%v routed=%v", first.Cached, first.Routed != nil)
	}
	var second *Result
	snap := traced(func(ctx context.Context) {
		if second, err = Compile(ctx, "hatt", mh, opts...); err != nil {
			t.Fatal(err)
		}
	})
	if !second.Cached || second.Routed == nil {
		t.Fatalf("second compile: cached=%v routed=%v", second.Cached, second.Routed != nil)
	}
	if spanCount(snap, "store.get", "hit", "true") != 1 {
		t.Errorf("second compile has no store.get hit span: %+v", snap.Spans)
	}
	for _, name := range []string{"circuit.synthesis", "circuit.route", "store.put"} {
		if n := spanCount(snap, name); n != 0 {
			t.Errorf("routed hit recorded %d %s spans, want 0", n, name)
		}
	}
	if !first.Routed.sameMetrics(second.Routed) {
		t.Errorf("cached routed metrics differ: %+v vs %+v", first.Routed, second.Routed)
	}
	want, _ := routedQASM(t, first.Routed)
	got, routes := routedQASM(t, second.Routed)
	if got != want {
		t.Error("cached routed circuit not byte-identical")
	}
	if routes != 1 {
		t.Errorf("deriving the hit's circuit routed %d times, want 1", routes)
	}
	if _, again := routedQASM(t, second.Routed); again != 0 {
		t.Errorf("a second Circuit call routed %d times, want 0", again)
	}

	// Routed and unrouted compilations are distinct content addresses:
	// an unrouted request after two routed ones is a store miss.
	plain, err := Compile(context.Background(), "hatt", mh, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cached {
		t.Error("unrouted compile hit the routed entry")
	}
	s := st.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Puts != 2 {
		t.Errorf("store stats = %+v, want 1 hit / 2 misses / 2 puts", s)
	}
}

// TestRoutedHitAfterDiskReload pins the memory-only summary: an entry
// reloaded from disk carries none, so its first routed hit routes once
// and stores the summary back; later hits route nothing.
func TestRoutedHitAfterDiskReload(t *testing.T) {
	dir := t.TempDir()
	mh := deviceTestMH(t, "hubbard:2x2")
	compile := func(st *store.Store) (*Result, int) {
		t.Helper()
		var res *Result
		snap := traced(func(ctx context.Context) {
			var err error
			if res, err = Compile(ctx, "hatt", mh, WithStore(st), WithDevice("grid:3x3")); err != nil {
				t.Fatal(err)
			}
		})
		return res, spanCount(snap, "circuit.route")
	}
	st1, err := store.Open(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	miss, _ := compile(st1)
	want, _ := routedQASM(t, miss.Routed)

	st2, err := store.Open(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, routes := compile(st2)
	if !reloaded.Cached || routes != 1 {
		t.Fatalf("first hit after reload: cached=%v with %d routes, want cached with 1", reloaded.Cached, routes)
	}
	if !miss.Routed.sameMetrics(reloaded.Routed) {
		t.Errorf("reloaded summary %+v, want %+v", reloaded.Routed, miss.Routed)
	}
	if got, again := routedQASM(t, reloaded.Routed); got != want || again != 0 {
		t.Errorf("reloaded circuit: identical=%v, routed %d more times (want identical, 0)", got == want, again)
	}
	next, routes := compile(st2)
	if !next.Cached || routes != 0 {
		t.Errorf("next hit: cached=%v with %d routes, want cached with 0", next.Cached, routes)
	}
	if !miss.Routed.sameMetrics(next.Routed) {
		t.Errorf("stored-back summary %+v, want %+v", next.Routed, miss.Routed)
	}
}

// TestRoutedKeyCoversSynthesisKnobs: the summary depends on the Trotter
// knobs, so a routed compile that changes one must not be served the
// summary stored under the defaults.
func TestRoutedKeyCoversSynthesisKnobs(t *testing.T) {
	st, err := store.Open(16, "")
	if err != nil {
		t.Fatal(err)
	}
	mh := deviceTestMH(t, "hubbard:2x2")
	ctx := context.Background()
	if _, err := Compile(ctx, "hatt", mh, WithStore(st), WithDevice("grid:3x3")); err != nil {
		t.Fatal(err)
	}
	got, err := Compile(ctx, "hatt", mh, WithStore(st), WithDevice("grid:3x3"), WithTrotterSteps(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compile(ctx, "hatt", mh, WithDevice("grid:3x3"), WithTrotterSteps(2))
	if err != nil {
		t.Fatal(err)
	}
	if got.Routed.CNOTs != want.Routed.CNOTs {
		t.Errorf("two-step routed compile reports %d CNOTs, a storeless one %d", got.Routed.CNOTs, want.Routed.CNOTs)
	}
}

// TestRoutedCircuitConcurrent derives one hit's circuit from many
// goroutines at once, as concurrent job polls do; run under -race.
func TestRoutedCircuitConcurrent(t *testing.T) {
	st, err := store.Open(16, "")
	if err != nil {
		t.Fatal(err)
	}
	mh := deviceTestMH(t, "hubbard:2x2")
	opts := []Option{WithStore(st), WithDevice("montreal")}
	if _, err := Compile(context.Background(), "hatt", mh, opts...); err != nil {
		t.Fatal(err)
	}
	hit, err := Compile(context.Background(), "hatt", mh, opts...)
	if err != nil || !hit.Cached {
		t.Fatalf("hit: cached=%v err=%v", hit != nil && hit.Cached, err)
	}
	circuits := make([]*circuit.Circuit, 8)
	var wg sync.WaitGroup
	for i := range circuits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := hit.Routed.Circuit(context.Background())
			if err != nil {
				t.Error(err)
			}
			circuits[i] = c
		}()
	}
	wg.Wait()
	for i, c := range circuits {
		if c == nil || c != circuits[0] {
			t.Fatalf("goroutine %d got circuit %p, goroutine 0 got %p", i, c, circuits[0])
		}
	}
}

// TestRoutedCircuitContradictingSummary: a derived circuit that
// disagrees with the stored metrics is an error, never a circuit.
func TestRoutedCircuitContradictingSummary(t *testing.T) {
	st, err := store.Open(16, "")
	if err != nil {
		t.Fatal(err)
	}
	mh := deviceTestMH(t, "h2")
	opts := []Option{WithStore(st), WithDevice("montreal")}
	fresh, err := Compile(context.Background(), "hatt", mh, opts...)
	if err != nil {
		t.Fatal(err)
	}
	key := storeKey("hatt", mh, NewOptions(opts...))
	e, ok := st.Get(key)
	if !ok || e.Routed == nil {
		t.Fatalf("stored entry %+v has no routed summary", e)
	}
	e.Routed.CNOTs++
	st.Put(key, e)
	hit, err := Compile(context.Background(), "hatt", mh, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Routed.CNOTs != fresh.Routed.CNOTs+1 {
		t.Fatalf("hit reports %d CNOTs, want the stored %d", hit.Routed.CNOTs, fresh.Routed.CNOTs+1)
	}
	c, err := hit.Routed.Circuit(context.Background())
	if err == nil || c != nil || !strings.Contains(err.Error(), "contradicts the stored summary") {
		t.Fatalf("Circuit = %v, %v; want a contradiction error", c, err)
	}
}

func TestPipelineReportsRouted(t *testing.T) {
	rep, err := Pipeline{
		Model:   "h2",
		Method:  "hatt",
		Options: []Option{WithDevice("grid:2x3")},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Routed == nil || rep.Routed.Device != "grid:2x3" {
		t.Fatalf("report routed = %+v", rep.Routed)
	}
	if rep.Routed != rep.Result.Routed {
		t.Error("report and result disagree on routed metrics")
	}
	// The routed circuit is the logical one pushed through routing: it
	// can only gain CNOTs.
	if rep.Routed.CNOTs < rep.CNOTs-rep.Routed.SwapsAdded*3 {
		t.Errorf("routed CNOTs %d implausible vs logical %d", rep.Routed.CNOTs, rep.CNOTs)
	}
}

func TestCompileBatchRoutes(t *testing.T) {
	items := []BatchItem{
		{Model: "h2", Spec: "jw"},
		{Model: "h2", Spec: "hatt"},
		{Model: "hubbard:2x2", Spec: "hatt"},
	}
	for _, br := range CompileBatch(context.Background(), items, WithDevice("montreal")) {
		if br.Err != nil {
			t.Fatalf("item %d: %v", br.Index, br.Err)
		}
		if br.Result.Routed == nil || br.Result.Routed.Device != "Montreal" {
			t.Errorf("item %d missing routed metrics", br.Index)
		}
	}
}
