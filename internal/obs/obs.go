// Package obs is the daemon's stdlib-only observability layer: request
// tracing (trace.go), a metrics registry with a Prometheus text surface
// (metrics.go), and the structured-logging conventions shared by hattd
// and hattc (this file).
//
// The three concerns meet in the request path: the HTTP edge mints (or
// adopts, from a W3C traceparent header) a trace context and carries it
// in context.Context; every pipeline stage below opens a named span
// against the tracer found in that context; ended spans land both in
// the tracer's bounded trace buffer (served by GET /v1/traces/{id}) and
// in the stage-duration histogram of the metrics registry (served by
// GET /metrics). Log lines emitted through L(ctx) carry the same
// trace_id/span_id attributes, so one identifier correlates the span
// timeline, the metrics, and the logs of a single request.
//
// Everything is opt-in by construction: code instrumented with
// StartSpan pays one context lookup and nil check when no tracer is
// attached, and L(ctx) degrades to slog.Default() outside a traced
// request.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// InitLogger installs the process-wide slog default used by every
// daemon and CLI in this repository: level is one of debug, info, warn,
// error; format is json (one object per line, machine-parseable) or
// text. The logger writes to w — conventionally os.Stderr, keeping
// stdout free for the documented machine-readable output (hattd's
// listening-address line, hattc's results).
func InitLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (want debug | info | warn | error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "json", "":
		h = slog.NewJSONHandler(w, opts)
	case "text":
		h = slog.NewTextHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want json | text)", format)
	}
	l := slog.New(h)
	slog.SetDefault(l)
	return l, nil
}

// L returns the logger for a request context: slog.Default() with the
// context's trace_id/span_id attached when the context carries a span.
// It is the one logging entry point service code uses, so
// every event inside a traced request is correlatable with its span
// timeline.
func L(ctx context.Context) *slog.Logger {
	l := slog.Default()
	if sc := SpanContextFrom(ctx); sc.Valid() {
		l = l.With("trace_id", sc.TraceID.String(), "span_id", sc.SpanID.String())
	}
	return l
}
