package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one request end to end.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports the invalid all-zero ID (the W3C spec reserves it).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String is the canonical lowercase-hex form (32 chars).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String is the canonical lowercase-hex form (16 chars).
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses the 32-char lowercase-hex form. The all-zero ID
// is rejected — it is the W3C "invalid" sentinel, never a real trace.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 2*len(t) || !isLowerHex(s) {
		return TraceID{}, fmt.Errorf("obs: trace ID must be %d lowercase hex chars", 2*len(t))
	}
	hex.Decode(t[:], []byte(s))
	if t.IsZero() {
		return TraceID{}, fmt.Errorf("obs: all-zero trace ID is invalid")
	}
	return t, nil
}

// SpanContext is the propagated identity of one point in a trace: which
// trace, and which span is the current parent.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are set (non-zero).
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// The W3C traceparent header: version "00", lowercase hex throughout,
// all-zero trace and parent IDs invalid.
const traceparentHeader = "traceparent"

// ParseTraceparent parses a W3C traceparent header value
// ("00-{32 hex trace id}-{16 hex parent id}-{2 hex flags}"). It is
// deliberately strict — anything malformed reports false and the caller
// starts a fresh trace, which is the spec's prescribed recovery.
func ParseTraceparent(h string) (SpanContext, bool) {
	// "00-" + 32 + "-" + 16 + "-" + 2
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	tid, sid, flags := h[3:35], h[36:52], h[53:55]
	if !isLowerHex(tid) || !isLowerHex(sid) || !isLowerHex(flags) {
		return SpanContext{}, false
	}
	var sc SpanContext
	hex.Decode(sc.TraceID[:], []byte(tid))
	hex.Decode(sc.SpanID[:], []byte(sid))
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TraceparentFrom extracts and validates the traceparent header of an
// incoming request.
func TraceparentFrom(h http.Header) (SpanContext, bool) {
	return ParseTraceparent(h.Get(traceparentHeader))
}

// Context plumbing. The tracer and the current span context travel in
// context.Context so instrumentation points need no wiring beyond the
// ctx they already thread.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer attaches a tracer; StartSpan below it records spans.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the attached tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithSpanContext sets the current span identity — used at the HTTP
// edge to adopt a remote parent before opening the root span.
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanKey, sc)
}

// SpanContextFrom returns the current span identity, or the zero value.
func SpanContextFrom(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanKey).(SpanContext)
	return sc
}

// Span is one named, timed unit of work inside a trace. The nil *Span
// is a valid no-op span — StartSpan returns it when the context has no
// tracer, which is what makes instrumentation zero-cost when tracing is
// off: one context lookup, one nil check, no allocation.
type Span struct {
	tracer *Tracer
	name   string
	sc     SpanContext
	parent SpanID
	start  time.Time
	attrs  []Attr
}

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value string
}

// StartSpan opens a span named name under the context's current span
// (or as a trace root when there is none) and returns the child context
// carrying the new span's identity. Without a tracer in ctx it returns
// (ctx, nil) — and the nil span's methods are all no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	parent := SpanContextFrom(ctx)
	sc := SpanContext{TraceID: parent.TraceID, SpanID: tr.nextSpanID()}
	if sc.TraceID.IsZero() {
		sc.TraceID = tr.nextTraceID()
	}
	sp := &Span{tracer: tr, name: name, sc: sc, parent: parent.SpanID, start: time.Now()}
	return WithSpanContext(ctx, sc), sp
}

// Context returns the span's identity (zero for the nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr attaches a key/value attribute. No-op on the nil span.
func (s *Span) SetAttr(key, value string) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
}

// End records the span into its tracer's buffer (and stage-duration
// histogram, when attached). No-op on the nil span. End must be called
// at most once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tracer.record(s, time.Since(s.start))
}

// SpanRecord is the stored (and wire) form of an ended span.
type SpanRecord struct {
	Name        string            `json:"name"`
	SpanID      string            `json:"span_id"`
	ParentID    string            `json:"parent_id,omitempty"`
	StartUnixUS int64             `json:"start_unix_us"`
	DurationUS  int64             `json:"duration_us"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// TraceSnapshot is one buffered trace: the span timeline served by
// GET /v1/traces/{id} and embedded in responses as the trace block.
// Spans appear in end order (children before parents, since a parent
// ends last).
type TraceSnapshot struct {
	TraceID string       `json:"trace_id"`
	Spans   []SpanRecord `json:"spans"`
	// Dropped counts spans discarded after the per-trace cap was hit.
	Dropped int `json:"dropped_spans,omitempty"`
}

// traceBuf is one trace's recorded spans.
type traceBuf struct {
	id      TraceID
	spans   []SpanRecord
	dropped int
}

// Tracer records ended spans into a bounded in-memory buffer of recent
// traces. Eviction is FIFO by trace creation: when a new trace would
// exceed the capacity, the oldest-created trace is dropped — recent
// requests are the ones an operator chasing a slow Trace-Id still
// holds, so recency by arrival is the retention that matters.
type Tracer struct {
	capacity int // max buffered traces
	spanCap  int // max recorded spans per trace

	mu     sync.Mutex
	traces map[TraceID]*traceBuf
	order  []TraceID // creation order, oldest first

	evicted atomic.Int64
	idctr   atomic.Uint64
	idbase  uint64

	stage *Histogram // optional stage-duration sink, set by SetStageHistogram
}

// Default tracer bounds: enough recent traces to chase a load
// generator's slowest tail, small enough to never matter in RSS.
const (
	DefaultTraceCapacity = 512
	DefaultSpanCap       = 128
)

// NewTracer builds a tracer buffering up to capacity traces
// (DefaultTraceCapacity when ≤ 0), each keeping at most DefaultSpanCap
// spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	var seed [8]byte
	_, _ = crand.Read(seed[:]) // a zero seed only weakens ID uniqueness across restarts
	return &Tracer{
		capacity: capacity,
		spanCap:  DefaultSpanCap,
		traces:   make(map[TraceID]*traceBuf, capacity),
		idbase:   binary.LittleEndian.Uint64(seed[:]),
	}
}

// SetStageHistogram attaches the histogram every ended span is observed
// into, labeled (stage = span name, method = the span's "method" attr).
func (t *Tracer) SetStageHistogram(h *Histogram) { t.stage = h }

// nextID draws the next value of the tracer's splitmix64 ID stream:
// unique within the process, seeded randomly so two processes do not
// mint colliding trace IDs.
func (t *Tracer) nextID() uint64 {
	for {
		if id := splitmix64(t.idbase + t.idctr.Add(1)); id != 0 {
			return id
		}
	}
}

func (t *Tracer) nextTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], t.nextID())
	binary.BigEndian.PutUint64(id[8:], t.nextID())
	return id
}

func (t *Tracer) nextSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.nextID())
	return id
}

// record stores one ended span, creating (and if necessary evicting)
// trace buffers.
func (t *Tracer) record(s *Span, d time.Duration) {
	rec := SpanRecord{
		Name:        s.name,
		SpanID:      s.sc.SpanID.String(),
		StartUnixUS: s.start.UnixMicro(),
		DurationUS:  d.Microseconds(),
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	method := ""
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value
			if a.Key == "method" {
				method = a.Value
			}
		}
	}
	if t.stage != nil {
		t.stage.Observe(d.Seconds(), s.name, method)
	}

	t.mu.Lock()
	tb, ok := t.traces[s.sc.TraceID]
	if !ok {
		for len(t.order) >= t.capacity {
			oldest := t.order[0]
			t.order = t.order[1:]
			delete(t.traces, oldest)
			t.evicted.Add(1)
		}
		tb = &traceBuf{id: s.sc.TraceID}
		t.traces[s.sc.TraceID] = tb
		t.order = append(t.order, s.sc.TraceID)
	}
	if len(tb.spans) >= t.spanCap {
		tb.dropped++
	} else {
		tb.spans = append(tb.spans, rec)
	}
	t.mu.Unlock()
}

// Snapshot returns a copy of one buffered trace's timeline.
func (t *Tracer) Snapshot(id TraceID) (TraceSnapshot, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tb, ok := t.traces[id]
	if !ok {
		return TraceSnapshot{}, false
	}
	snap := TraceSnapshot{
		TraceID: id.String(),
		Spans:   append([]SpanRecord(nil), tb.spans...),
		Dropped: tb.dropped,
	}
	return snap, true
}

// Len reports how many traces are buffered.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// Evicted reports how many traces the buffer has dropped for capacity.
func (t *Tracer) Evicted() int64 { return t.evicted.Load() }

// splitmix64 is the repository's shared deterministic mixer (same as
// internal/fault), used here to stretch one random seed into a unique ID
// stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
