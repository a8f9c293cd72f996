package obs

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// traceparent formats sc as a W3C traceparent header value with the
// sampled flag set: the form ParseTraceparent reads.
func traceparent(sc SpanContext) string {
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(8)
	sc := SpanContext{TraceID: tr.nextTraceID(), SpanID: tr.nextSpanID()}
	h := traceparent(sc)
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected its own output", h)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("malformed traceparent %q", h)
	}
}

func TestTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span ID
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // wrong version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g", // bad flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad separator
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) = ok, want rejection", h)
		}
	}
}

func FuzzTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add("zz-nothexnothexnothexnothexnothexno-nothexnothexnoth-xx")
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		// Anything accepted must be valid and must round-trip through the
		// canonical form (modulo the flags byte, which traceparent pins to
		// the sampled value).
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context", h)
		}
		sc2, ok2 := ParseTraceparent(traceparent(sc))
		if !ok2 || sc2 != sc {
			t.Fatalf("canonical form of %q does not round-trip", h)
		}
		if traceparent(sc)[:53] != h[:53] {
			t.Fatalf("re-encoding %q changed the IDs: %q", h, traceparent(sc))
		}
	})
}

func TestParseTraceID(t *testing.T) {
	id := NewTracer(1).nextTraceID()
	got, err := ParseTraceID(id.String())
	if err != nil || got != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", id.String(), got, err)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("G", 32)} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

// endSpanFor records one span under the given trace ID.
func endSpanFor(tr *Tracer, id TraceID, name string) {
	ctx := WithTracer(context.Background(), tr)
	ctx = WithSpanContext(ctx, SpanContext{TraceID: id, SpanID: tr.nextSpanID()})
	_, sp := StartSpan(ctx, name)
	sp.End()
}

func TestSpanBufferEvictionOrder(t *testing.T) {
	tr := NewTracer(3)
	ids := make([]TraceID, 5)
	for i := range ids {
		ids[i] = tr.nextTraceID()
	}
	// Fill to capacity with traces 0, 1, 2.
	for _, id := range ids[:3] {
		endSpanFor(tr, id, "s")
	}
	// A second span for trace 0 must not refresh its retention: eviction
	// is FIFO by trace creation, not LRU.
	endSpanFor(tr, ids[0], "s2")
	// Trace 3 evicts trace 0 (oldest created), trace 4 evicts trace 1.
	endSpanFor(tr, ids[3], "s")
	endSpanFor(tr, ids[4], "s")

	wantGone := []TraceID{ids[0], ids[1]}
	wantKept := []TraceID{ids[2], ids[3], ids[4]}
	for _, id := range wantGone {
		if _, ok := tr.Snapshot(id); ok {
			t.Errorf("trace %s should have been evicted", id)
		}
	}
	for _, id := range wantKept {
		if _, ok := tr.Snapshot(id); !ok {
			t.Errorf("trace %s should still be buffered", id)
		}
	}
	if got := tr.Evicted(); got != 2 {
		t.Errorf("Evicted() = %d, want 2", got)
	}
	if got := tr.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3", got)
	}
}

func TestStartSpanWithoutTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatalf("StartSpan without a tracer returned a live span")
	}
	if ctx2 != ctx {
		t.Fatalf("StartSpan without a tracer should return ctx unchanged")
	}
	// The nil span's whole surface must be safe.
	sp.SetAttr("k", "v")
	sp.End()
	if sc := sp.Context(); sc.Valid() {
		t.Fatalf("nil span has a valid context: %+v", sc)
	}
}

func TestSpanParentageAndAttrs(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	ctx, child := StartSpan(ctx, "child")
	child.SetAttr("method", "hatt")
	child.End()
	root.End()

	if root.Context().TraceID != child.Context().TraceID {
		t.Fatalf("child landed in a different trace")
	}
	snap, ok := tr.Snapshot(root.Context().TraceID)
	if !ok {
		t.Fatalf("trace not buffered")
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(snap.Spans))
	}
	// Children end first.
	if snap.Spans[0].Name != "child" || snap.Spans[1].Name != "root" {
		t.Fatalf("span order: %s, %s", snap.Spans[0].Name, snap.Spans[1].Name)
	}
	if snap.Spans[0].ParentID != snap.Spans[1].SpanID {
		t.Fatalf("child's parent %q is not the root span %q", snap.Spans[0].ParentID, snap.Spans[1].SpanID)
	}
	if snap.Spans[1].ParentID != "" {
		t.Fatalf("root span has a parent: %q", snap.Spans[1].ParentID)
	}
	if snap.Spans[0].Attrs["method"] != "hatt" {
		t.Fatalf("child attrs = %v", snap.Spans[0].Attrs)
	}
}

func TestSpanCapDropsExcess(t *testing.T) {
	tr := NewTracer(2)
	tr.spanCap = 3
	id := tr.nextTraceID()
	for i := 0; i < 5; i++ {
		endSpanFor(tr, id, fmt.Sprintf("s%d", i))
	}
	snap, ok := tr.Snapshot(id)
	if !ok {
		t.Fatalf("trace not buffered")
	}
	if len(snap.Spans) != 3 || snap.Dropped != 2 {
		t.Fatalf("got %d spans, %d dropped; want 3 kept, 2 dropped", len(snap.Spans), snap.Dropped)
	}
}

func TestStageHistogramObservation(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_stage_seconds", "stage durations", DefLatencyBuckets, "stage", "method")
	tr := NewTracer(4)
	tr.SetStageHistogram(h)
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "compile.search")
	sp.SetAttr("method", "hatt")
	time.Sleep(time.Millisecond)
	sp.End()
	if n := observedCount(h, "compile.search", "hatt"); n != 1 {
		t.Fatalf("stage histogram count = %d, want 1", n)
	}
}
