package obs

import (
	"strings"
	"testing"

	"repro/internal/analysis/annotations"
)

// observedCount reports how many samples one label combination has
// observed, without creating a child for a combination never observed.
func observedCount(h *Histogram, labelValues ...string) uint64 {
	key := appendLabelKey(nil, labelValues)
	h.f.mu.Lock()
	ch := h.f.children[string(key)]
	h.f.mu.Unlock()
	if ch == nil {
		return 0
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.count
}

// TestObservedCountLeavesRegistryAlone: asking about a label combination
// never observed reads 0 and adds nothing to the exposition.
func TestObservedCountLeavesRegistryAlone(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency_seconds", "x", DefLatencyBuckets, "route")
	h.Observe(0.01, "observed")
	var before, after strings.Builder
	if err := reg.WriteText(&before); err != nil {
		t.Fatal(err)
	}
	if n := observedCount(h, "never-observed"); n != 0 {
		t.Fatalf("observedCount = %d on a label set never observed, want 0", n)
	}
	if n := observedCount(h, "observed"); n != 1 {
		t.Fatalf("observedCount = %d, want 1", n)
	}
	if err := reg.WriteText(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatalf("observedCount changed the exposition:\n%s\nwant:\n%s", after.String(), before.String())
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("test_requests_total", "requests", []string{"route"}, func() []Sample {
		return []Sample{{Labels: []string{"a"}, Value: 3}, {Labels: []string{"b"}, Value: 1}}
	})
	reg.GaugeFunc("test_depth", "queue depth", nil, func() []Sample {
		return []Sample{{Value: 7}}
	})
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		`test_requests_total{route="a"} 3`,
		`test_requests_total{route="b"} 1`,
		"# TYPE test_depth gauge",
		"test_depth 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	none := func() []Sample { return nil }
	reg.CounterFunc("dup_total", "x", nil, none)
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration did not panic")
		}
	}()
	reg.GaugeFunc("dup_total", "y", nil, none)
}

func TestFuncMetricsRender(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("test_injected_total", "fault injections", []string{"site"}, func() []Sample {
		return []Sample{
			{Labels: []string{"store.disk.write"}, Value: 4},
			{Labels: []string{"service.queue.stall"}, Value: 2},
		}
	})
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Samples sort by label value for deterministic scrapes.
	i := strings.Index(out, `site="service.queue.stall"`)
	j := strings.Index(out, `site="store.disk.write"`)
	if i < 0 || j < 0 || i > j {
		t.Fatalf("func samples missing or unsorted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("test_esc_total", "escapes", []string{"v"}, func() []Sample {
		return []Sample{{Labels: []string{"a\"b\\c\nd"}, Value: 1}}
	})
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `v="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

func TestHistogramText(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency_seconds", "latency", []float64{0.1, 1}, "route")
	h.Observe(0.05, "a")
	h.Observe(0.5, "a")
	h.Observe(5, "a")
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{route="a",le="0.1"} 1`,
		`test_latency_seconds_bucket{route="a",le="1"} 2`,
		`test_latency_seconds_bucket{route="a",le="+Inf"} 3`,
		`test_latency_seconds_count{route="a"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `test_latency_seconds_sum{route="a"} 5.55`) {
		t.Errorf("sum line wrong:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		v    float64
		want string
	}{
		{0, "0"}, {3, "3"}, {-2, "-2"}, {0.25, "0.25"}, {1e15, "1e+15"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.v); got != tt.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

// TestObserveAllocs: once a label combination has its child, observing
// it again allocates nothing — hattd observes on every request and every
// ended span.
func TestObserveAllocs(t *testing.T) {
	if annotations.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	h := NewRegistry().Histogram("test_observe_seconds", "x", DefLatencyBuckets, "route", "status")
	h.Observe(0.01, "POST /v1/compile", "200") // creates the child
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.01, "POST /v1/compile", "200") }); n != 0 {
		t.Errorf("Observe allocates %.1f times per call on an existing child, want 0", n)
	}
	if got := observedCount(h, "POST /v1/compile", "200"); got != 1002 {
		t.Errorf("Count = %d, want 1002", got)
	}
}
