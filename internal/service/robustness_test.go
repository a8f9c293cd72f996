package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/pkg/compiler"
)

// TestRetryAfterOnBackpressure holds the 429 and 503 paths to the
// documented contract: both carry a Retry-After header so clients know
// how long to back off.
func TestRetryAfterOnBackpressure(t *testing.T) {
	b := newBlocking(t)
	mgr := New(Config{Workers: 1, QueueDepth: 1})
	srv := httptest.NewServer(NewAPI(mgr, nil).Handler())
	defer srv.Close()

	postJSON(t, srv.URL+"/v1/jobs", fmt.Sprintf(`{"model":"h2","method":%q}`, b.name))
	<-b.started
	postJSON(t, srv.URL+"/v1/jobs", fmt.Sprintf(`{"model":"hubbard:1x2","method":%q}`, b.name))
	resp, _ := postJSON(t, srv.URL+"/v1/jobs", fmt.Sprintf(`{"model":"hubbard:1x3","method":%q}`, b.name))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != retryAfterBackpressure {
		t.Fatalf("429 Retry-After = %q, want %q", resp.Header.Get("Retry-After"), retryAfterBackpressure)
	}

	close(b.release)
	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{"model":"h2"}`)
	if resp.StatusCode != http.StatusServiceUnavailable || body["error"] == nil {
		t.Fatalf("draining submit: %d %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != retryAfterDraining {
		t.Fatalf("503 Retry-After = %q, want %q", resp.Header.Get("Retry-After"), retryAfterDraining)
	}
}

// TestReadyzDrainingDegrades checks the liveness/readiness split: a
// draining node keeps answering healthz 200 while readyz flips to 503
// with the reason named.
func TestReadyzDrainingDegrades(t *testing.T) {
	srv, _, mgr := testServer(t, "")

	if r, body := getJSON(t, srv.URL+"/v1/readyz"); r.StatusCode != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("idle readyz: %d %v", r.StatusCode, body)
	}
	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, body := getJSON(t, srv.URL+"/v1/readyz")
	if r.StatusCode != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("draining readyz: %d %v", r.StatusCode, body)
	}
	if !strings.Contains(fmt.Sprint(body["reasons"]), "draining") {
		t.Fatalf("reasons missing draining: %v", body["reasons"])
	}
	if r, body := getJSON(t, srv.URL+"/v1/healthz"); r.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("draining node failed liveness: %d %v", r.StatusCode, body)
	}
}

// TestReadyzDiskDegradation drives the whole loop over HTTP: an
// injected disk-write failure flips readyz to degraded (the compile
// itself still succeeds — the memory tier masks the loss), the next
// successful write heals it, and /v1/stats carries the fault block
// while the plan is armed.
func TestReadyzDiskDegradation(t *testing.T) {
	srv, _, _ := testServer(t, t.TempDir())
	if err := fault.Arm("seed=1;store.disk.write=error*1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)

	if resp, body := postJSON(t, srv.URL+"/v1/compile", `{"model":"h2"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile under disk fault: %d %v", resp.StatusCode, body)
	}
	r, body := getJSON(t, srv.URL+"/v1/readyz")
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after disk-write failure: %d %v", r.StatusCode, body)
	}
	if !strings.Contains(fmt.Sprint(body["reasons"]), "disk") {
		t.Fatalf("reasons missing disk tier: %v", body["reasons"])
	}
	if _, stats := getJSON(t, srv.URL+"/v1/stats"); stats["fault"] == nil || stats["overload"] == nil {
		t.Fatalf("stats missing fault/overload blocks: %v", stats)
	}

	// The fault burst is spent; the next disk write succeeds and heals.
	if resp, _ := postJSON(t, srv.URL+"/v1/compile", `{"model":"hubbard:1x2"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("healing compile: %d", resp.StatusCode)
	}
	if r, body := getJSON(t, srv.URL+"/v1/readyz"); r.StatusCode != http.StatusOK {
		t.Fatalf("readyz after heal: %d %v", r.StatusCode, body)
	}
}

// TestSyncInFlightCapSheds pins the admission gate on POST /v1/compile:
// past the cap, requests shed with 429 + Retry-After without entering
// the compile path, and the slot frees once the request finishes.
func TestSyncInFlightCapSheds(t *testing.T) {
	st, err := store.Open(8, "")
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(Config{Workers: 1, QueueDepth: 4, Store: st})
	defer mgr.Shutdown(context.Background())
	api := NewAPI(mgr, st, WithMaxInFlight(1))

	var once sync.Once
	started := make(chan struct{})
	release := make(chan struct{})
	api.compile = func(ctx context.Context, req *compileRequest) (*compiler.Result, int, error) {
		once.Do(func() { close(started) })
		<-release
		return nil, http.StatusBadRequest, errors.New("stub finished")
	}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, srv.URL+"/v1/compile", `{"model":"h2"}`)
	}()
	<-started
	resp, body := postJSON(t, srv.URL+"/v1/compile", `{"model":"h2"}`)
	if resp.StatusCode != http.StatusTooManyRequests || body["error"] == nil {
		t.Fatalf("over-cap compile: %d %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != retryAfterBackpressure {
		t.Fatalf("shed Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	close(release)
	wg.Wait()
	if resp, _ := postJSON(t, srv.URL+"/v1/compile", `{"model":"h2"}`); resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("in-flight slot not released after request finished")
	}
}

// TestWorkerPanicFailsJobOnly injects service.worker.panic: the job
// fails with the panic message, the worker survives, and the next job
// on the same (single-worker) pool compiles normally.
func TestWorkerPanicFailsJobOnly(t *testing.T) {
	if err := fault.Arm("seed=1;service.worker.panic=error*1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background())

	doomed, _, err := mgr.Submit(named(t, Request{Model: "h2"}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Wait(context.Background(), doomed.ID)
	if err != nil || st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("doomed job: %+v err=%v", st, err)
	}

	next, _, err := mgr.Submit(named(t, Request{Model: "hubbard:1x2"}))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := mgr.Wait(context.Background(), next.ID); err != nil || st.State != StateDone {
		t.Fatalf("worker did not survive the panic: %+v err=%v", st, err)
	}
}

// TestStalledWorkerMeetsJobDeadline arms service.queue.stall with an
// hour of latency under a 50 ms MaxJobTime: the job's deadline covers
// the stall, so the job fails on it within a second and Shutdown does
// not wait out the hour.
func TestStalledWorkerMeetsJobDeadline(t *testing.T) {
	if err := fault.Arm("seed=1;service.queue.stall=latency:1h*1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)
	mgr := New(Config{Workers: 1, QueueDepth: 4, MaxJobTime: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	stalled, _, err := mgr.Submit(named(t, Request{Model: "h2"}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Wait(ctx, stalled.ID)
	if err != nil || st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("stalled job: %+v err=%v, want failed on its deadline within a second", st, err)
	}
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after the stall: %v", err)
	}
}
