package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// sampleTraceparent is a fixed W3C traceparent a caller might inject;
// the trace ID half is what every response and span must carry.
const (
	sampleTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sampleTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
)

// postTraced posts a compile request with an injected traceparent and
// returns the response plus decoded body.
func postTraced(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", sampleTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	return resp, m
}

// spanNames flattens a trace payload's spans to their names.
func spanNames(t *testing.T, trace map[string]any) []string {
	t.Helper()
	raw, ok := trace["spans"].([]any)
	if !ok {
		t.Fatalf("trace has no spans array: %v", trace)
	}
	names := make([]string, 0, len(raw))
	for _, s := range raw {
		names = append(names, s.(map[string]any)["name"].(string))
	}
	return names
}

func containsName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// TestTraceparentAdoptionAndTraceEndpoint pins the single-node tracing
// contract: an injected traceparent's trace ID is echoed in the Trace-Id
// header and trace_id field, "trace":true embeds the pipeline span
// timeline, and GET /v1/traces/{id} replays the buffered trace
// (including the http.request root) after the response.
func TestTraceparentAdoptionAndTraceEndpoint(t *testing.T) {
	srv, _, _ := testServer(t, "")

	resp, body := postTraced(t, srv.URL+"/v1/compile",
		`{"model":"h2","method":"jw","trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %v", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Trace-Id"); got != sampleTraceID {
		t.Fatalf("Trace-Id header = %q, want the injected trace %q", got, sampleTraceID)
	}
	if body["trace_id"] != sampleTraceID {
		t.Fatalf("trace_id field = %v, want %q", body["trace_id"], sampleTraceID)
	}

	// The embedded timeline carries the pipeline stages that already
	// completed (the root http.request span is still open at marshal
	// time; it lands in the buffer for the follow-up GET).
	trace, ok := body["trace"].(map[string]any)
	if !ok {
		t.Fatalf(`"trace":true did not embed a trace block: %v`, body)
	}
	names := spanNames(t, trace)
	for _, want := range []string{"model.build", "store.get", "compile.search", "store.put"} {
		if !containsName(names, want) {
			t.Errorf("embedded trace missing span %q (have %v)", want, names)
		}
	}

	// Replay through the traces endpoint: same spans plus the root.
	r2, replay := getJSON(t, srv.URL+"/v1/traces/"+sampleTraceID)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/{id}: %d %v", r2.StatusCode, replay)
	}
	if replay["trace_id"] != sampleTraceID {
		t.Errorf("replayed trace_id = %v", replay["trace_id"])
	}
	if names := spanNames(t, replay); !containsName(names, "http.request") {
		t.Errorf("buffered trace missing the http.request root (have %v)", names)
	}

	// Malformed and unknown IDs answer structured 400/404.
	if r, b := getJSON(t, srv.URL+"/v1/traces/nothex"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed trace ID: %d %v, want 400", r.StatusCode, b)
	}
	if r, b := getJSON(t, srv.URL+"/v1/traces/"+strings.Repeat("ab", 16)); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace ID: %d %v, want 404", r.StatusCode, b)
	}
}

// TestInlineCompileTracesModelBuild holds an inline Hamiltonian's decode
// and Majorana expansion to the model.build span a named model gets,
// tagged model=custom, so that work is attributed in traces and in
// hatt_stage_duration_seconds.
func TestInlineCompileTracesModelBuild(t *testing.T) {
	srv, _, _ := testServer(t, "")
	resp, body := postTraced(t, srv.URL+"/v1/compile",
		`{"hamiltonian":{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":0,"dagger":true},{"mode":1,"dagger":false}]}]},"method":"jw","trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %v", resp.StatusCode, body)
	}
	trace, ok := body["trace"].(map[string]any)
	if !ok {
		t.Fatalf(`"trace":true did not embed a trace block: %v`, body)
	}
	for _, s := range trace["spans"].([]any) {
		span := s.(map[string]any)
		if span["name"] != "model.build" {
			continue
		}
		if attrs, _ := span["attrs"].(map[string]any); attrs["model"] != "custom" {
			t.Fatalf("inline model.build attrs = %v, want model=custom", span["attrs"])
		}
		return
	}
	t.Fatalf("inline compile has no model.build span (have %v)", spanNames(t, trace))
}

// scrapeMetrics renders the registry and parses every sample line into
// a map keyed by the full sample identity ('name{labels}').
func scrapeMetrics(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestStatsMatchesMetrics holds the anti-drift satellite: /v1/stats and
// /metrics are two renderings of the same counters, so corresponding
// values must be equal when read back-to-back on a quiesced server.
func TestStatsMatchesMetrics(t *testing.T) {
	st, err := store.Open(8, "")
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(Config{Workers: 1, QueueDepth: 4, Store: st})
	defer shutdownManager(t, mgr)
	api := NewAPI(mgr, st)
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)

	// One miss-then-hit pair plus a store put gives every store counter
	// a nonzero reading to compare.
	req := `{"model":"h2","method":"jw"}`
	if r, _ := postJSON(t, srv.URL+"/v1/compile", req); r.StatusCode != http.StatusOK {
		t.Fatalf("compile 1: %d", r.StatusCode)
	}
	if r, body := postJSON(t, srv.URL+"/v1/compile", req); r.StatusCode != http.StatusOK || body["cached"] != true {
		t.Fatalf("compile 2: %d cached=%v", r.StatusCode, body["cached"])
	}

	snap := api.statsSnapshot()
	metrics := scrapeMetrics(t, api.Registry())

	stats := snap["store"].(store.Stats)
	for key, want := range map[string]float64{
		`hatt_store_lookups_total{result="hit"}`:  float64(stats.Hits),
		`hatt_store_lookups_total{result="miss"}`: float64(stats.Misses),
		`hatt_store_puts_total`:                   float64(stats.Puts),
		`hatt_store_evictions_total`:              float64(stats.Evictions),
		`hatt_store_entries`:                      float64(stats.Entries),
	} {
		if metrics[key] != want {
			t.Errorf("%s = %v, /v1/stats says %v", key, metrics[key], want)
		}
	}

	jobs := snap["jobs"].(map[string]any)
	if got := metrics["hatt_jobs_queue_depth"]; got != float64(jobs["queue_depth"].(int)) {
		t.Errorf("hatt_jobs_queue_depth = %v, stats %v", got, jobs["queue_depth"])
	}
	if got := metrics["hatt_jobs_queue_capacity"]; got != float64(jobs["queue_capacity"].(int)) {
		t.Errorf("hatt_jobs_queue_capacity = %v, stats %v", got, jobs["queue_capacity"])
	}

	overload := snap["overload"].(map[string]any)
	if got := metrics["hatt_http_shed_total"]; got != float64(overload["shed_sync"].(int64)) {
		t.Errorf("hatt_http_shed_total = %v, stats %v", got, overload["shed_sync"])
	}

	// The request histogram observed both compiles.
	count := 0.0
	for key, v := range metrics {
		if strings.HasPrefix(key, `hatt_http_request_duration_seconds_count{route="POST /v1/compile"`) {
			count += v
		}
	}
	if count != 2 {
		t.Errorf("request histogram count for POST /v1/compile = %v, want 2", count)
	}
}

func shutdownManager(t *testing.T, mgr *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Errorf("manager shutdown: %v", err)
	}
}

// TestMetricsEndpointScrapes pins the exposition contract end to end:
// text/plain version 0.0.4, HELP/TYPE lines, and a nonzero request
// histogram after traffic — the same checks the CI trace-smoke job runs
// against a live daemon.
func TestMetricsEndpointScrapes(t *testing.T) {
	st, err := store.Open(8, "")
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(Config{Workers: 1, QueueDepth: 4, Store: st})
	defer shutdownManager(t, mgr)
	api := NewAPI(mgr, st)
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	msrv := httptest.NewServer(api.MetricsHandler())
	t.Cleanup(msrv.Close)

	if r, _ := postJSON(t, srv.URL+"/v1/compile", `{"model":"h2","method":"jw"}`); r.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d", r.StatusCode)
	}
	resp, err := http.Get(msrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain version 0.0.4", ct)
	}
	body := readAll(t, resp)
	for _, want := range []string{
		"# HELP hatt_http_request_duration_seconds",
		"# TYPE hatt_http_request_duration_seconds histogram",
		"# TYPE hatt_stage_duration_seconds histogram",
		"hatt_build_info{",
		`hatt_http_request_duration_seconds_count{route="POST /v1/compile",status="200"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
