package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// testServer wires a full stack — store (optionally disk-backed),
// manager, API — and tears it down with the test.
func testServer(t *testing.T, dir string) (*httptest.Server, *store.Store, *Manager) {
	t.Helper()
	st, err := store.Open(64, dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(Config{Workers: 2, QueueDepth: 8, Store: st})
	srv := httptest.NewServer(NewAPI(mgr, st).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return srv, st, mgr
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestCompileEndToEndCacheHit is the PR's acceptance path: the same
// Hamiltonian + spec + options compiled twice returns byte-identical
// mappings with the second served from the store, and the disk tier
// carries the entry across a process restart.
func TestCompileEndToEndCacheHit(t *testing.T) {
	dir := t.TempDir()
	srv, st, _ := testServer(t, dir)
	req := `{"model":"hubbard:2x2","method":"hatt","include_strings":true}`

	r1, b1 := postJSON(t, srv.URL+"/v1/compile", req)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first compile: %d %v", r1.StatusCode, b1)
	}
	if b1["cached"] != false {
		t.Fatalf("first compile cached = %v", b1["cached"])
	}
	r2, b2 := postJSON(t, srv.URL+"/v1/compile", req)
	if r2.StatusCode != http.StatusOK || b2["cached"] != true {
		t.Fatalf("second compile: %d cached=%v", r2.StatusCode, b2["cached"])
	}
	m1, _ := json.Marshal(b1["mapping"])
	m2, _ := json.Marshal(b2["mapping"])
	if len(m1) == 0 || !bytes.Equal(m1, m2) {
		t.Fatalf("mappings differ between fresh and cached responses:\n%s\n%s", m1, m2)
	}
	if b1["pauli_weight"] != b2["pauli_weight"] || b1["qubits"] != b2["qubits"] {
		t.Fatalf("scalars differ: %v vs %v", b1, b2)
	}
	if got := st.Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("store stats = %+v, want exactly one hit and one miss", got)
	}

	// /v1/stats reflects the same counters.
	rs, stats := getJSON(t, srv.URL+"/v1/stats")
	if rs.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", rs.StatusCode)
	}
	storeStats, ok := stats["store"].(map[string]any)
	if !ok || storeStats["hits"] != float64(1) {
		t.Fatalf("stats payload = %v, want store.hits = 1", stats)
	}

	// "Process restart": a fresh stack over the same disk tier serves the
	// entry without recompiling.
	srv2, st2, _ := testServer(t, dir)
	r3, b3 := postJSON(t, srv2.URL+"/v1/compile", req)
	if r3.StatusCode != http.StatusOK || b3["cached"] != true {
		t.Fatalf("post-restart compile: %d cached=%v", r3.StatusCode, b3["cached"])
	}
	m3, _ := json.Marshal(b3["mapping"])
	if !bytes.Equal(m1, m3) {
		t.Fatalf("mapping changed across restart:\n%s\n%s", m1, m3)
	}
	if got := st2.Stats(); got.DiskHits != 1 {
		t.Fatalf("restart stats = %+v, want the hit attributed to disk", got)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	srv, _, _ := testServer(t, "")

	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{"model":"h2","method":"jw"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, body)
	}
	id, _ := body["id"].(string)
	url, _ := body["url"].(string)
	if id == "" || url != "/v1/jobs/"+id {
		t.Fatalf("submit payload = %v", body)
	}

	deadline := time.After(5 * time.Second)
	for {
		r, job := getJSON(t, srv.URL+url)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %v", r.StatusCode, job)
		}
		switch job["state"] {
		case "done":
			result, ok := job["result"].(map[string]any)
			if !ok {
				t.Fatalf("done without result: %v", job)
			}
			if result["method"] != "jw" || result["mapping"] == nil {
				t.Fatalf("result payload = %v", result)
			}
			return
		case "failed", "canceled":
			t.Fatalf("job ended %v: %v", job["state"], job)
		}
		select {
		case <-deadline:
			t.Fatal("job never finished")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestAsyncDedupOverHTTP(t *testing.T) {
	b := newBlocking(t)
	srv, _, _ := testServer(t, "")
	defer close(b.release)

	req := fmt.Sprintf(`{"model":"h2","method":%q}`, b.name)
	_, first := postJSON(t, srv.URL+"/v1/jobs", req)
	<-b.started
	_, second := postJSON(t, srv.URL+"/v1/jobs", req)
	if second["deduped"] != true || second["id"] != first["id"] {
		t.Fatalf("in-flight duplicate not attached: %v vs %v", second, first)
	}
}

func TestJobCancelOverHTTP(t *testing.T) {
	b := newBlocking(t)
	srv, _, _ := testServer(t, "")

	_, sub := postJSON(t, srv.URL+"/v1/jobs", fmt.Sprintf(`{"model":"h2","method":%q}`, b.name))
	id, _ := sub["id"].(string)
	<-b.started

	reqDel, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	deadline := time.After(5 * time.Second)
	for {
		_, job := getJSON(t, srv.URL+"/v1/jobs/"+id)
		if job["state"] == "canceled" {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job not canceled: %v", job)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestQueueFullIs429(t *testing.T) {
	b := newBlocking(t)
	st, err := store.Open(8, "")
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(Config{Workers: 1, QueueDepth: 1, Store: st})
	srv := httptest.NewServer(NewAPI(mgr, st).Handler())
	defer func() {
		srv.Close()
		close(b.release)
		_ = mgr.Shutdown(context.Background())
	}()

	// One running, one queued, then backpressure.
	postJSON(t, srv.URL+"/v1/jobs", fmt.Sprintf(`{"model":"h2","method":%q}`, b.name))
	<-b.started
	postJSON(t, srv.URL+"/v1/jobs", fmt.Sprintf(`{"model":"hubbard:1x2","method":%q}`, b.name))
	resp, body := postJSON(t, srv.URL+"/v1/jobs", fmt.Sprintf(`{"model":"hubbard:1x3","method":%q}`, b.name))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull submit: %d %v", resp.StatusCode, body)
	}
	if body["error"] == nil || body["status"] != float64(429) {
		t.Fatalf("429 body not structured: %v", body)
	}
}

func TestMethodsHealthzAndErrors(t *testing.T) {
	srv, _, _ := testServer(t, "")

	r, body := getJSON(t, srv.URL+"/v1/methods")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("methods: %d", r.StatusCode)
	}
	methods, _ := body["methods"].([]any)
	found := false
	for _, m := range methods {
		if m == "hatt" {
			found = true
		}
	}
	if !found {
		t.Fatalf("methods payload missing hatt: %v", body)
	}

	if r, body := getJSON(t, srv.URL+"/v1/healthz"); r.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", r.StatusCode, body)
	}

	for name, tc := range map[string]struct {
		body string
		code int
	}{
		"bad json":         {`{not json`, http.StatusBadRequest},
		"unknown field":    {`{"modell":"h2"}`, http.StatusBadRequest},
		"unknown method":   {`{"model":"h2","method":"nope"}`, http.StatusBadRequest},
		"unknown model":    {`{"model":"nope"}`, http.StatusBadRequest},
		"no model":         {`{"method":"hatt"}`, http.StatusBadRequest},
		"oversized model":  {`{"model":"hubbard:10x10"}`, http.StatusUnprocessableEntity},
		"absurd beam":      {`{"model":"h2","method":"beam:100000"}`, http.StatusBadRequest},
		"negative budget":  {`{"model":"h2","method":"fh:-1"}`, http.StatusBadRequest},
		"bad tiebreak":     {`{"model":"h2","options":{"tie_break":"sideways"}}`, http.StatusBadRequest},
		"trailing garbage": {`{"model":"h2"} extra`, http.StatusBadRequest},
		"bad hamiltonian":  {`{"hamiltonian":{"modes":-3}}`, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, srv.URL+"/v1/compile", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%v)", name, resp.StatusCode, tc.code, body)
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("%s: error body not structured: %v", name, body)
		}
	}

	if r, _ := getJSON(t, srv.URL+"/v1/jobs/job-424242"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", r.StatusCode)
	}
}

func TestCustomHamiltonianRequest(t *testing.T) {
	srv, _, _ := testServer(t, "")
	req := `{"hamiltonian":{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":0,"dagger":true},{"mode":0,"dagger":false}]}]},"method":"jw","include_strings":true}`
	resp, body := postJSON(t, srv.URL+"/v1/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("custom hamiltonian compile: %d %v", resp.StatusCode, body)
	}
	if body["model"] != "custom" || body["qubits"] != float64(2) {
		t.Fatalf("payload = %v", body)
	}
}

// TestInlineHamiltonianTyposRejected: a misspelt key or a coeff that is
// not exactly two numbers is a 400, not a compile of a different
// Hamiltonian (a zero coefficient, an annihilator for a creator, a lost
// number).
func TestInlineHamiltonianTyposRejected(t *testing.T) {
	srv, _, _ := testServer(t, "")
	for name, ham := range map[string]string{
		"coef":        `{"modes":2,"terms":[{"coef":[1,0],"ops":[{"mode":0,"dagger":true},{"mode":1,"dagger":false}]}]}`,
		"dager":       `{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":0,"dager":true},{"mode":1,"dagger":false}]}]}`,
		"three coeff": `{"modes":2,"terms":[{"coeff":[1,0,7],"ops":[{"mode":0,"dagger":true},{"mode":1,"dagger":false}]}]}`,
	} {
		resp, body := postJSON(t, srv.URL+"/v1/compile", `{"method":"jw","hamiltonian":`+ham+`}`)
		msg, _ := body["error"].(string)
		if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(msg, "invalid hamiltonian: ") {
			t.Errorf("%s: status %d, body %v; want 400 invalid hamiltonian", name, resp.StatusCode, body)
		}
	}
}

// longTermBody is an inline Hamiltonian of under 1 KB whose one
// 24-operator term expands into 2^24 Majorana monomials: seconds of work
// and gigabytes of memory if the server expanded it.
func longTermBody() string {
	ops := strings.Repeat(`{"mode":0,"dagger":true},{"mode":1,"dagger":false},`, 12)
	return `{"hamiltonian":{"modes":4,"terms":[{"coeff":[1,0],"ops":[` + strings.TrimSuffix(ops, ",") + `]}]},"method":"jw"}`
}

// TestInlineExpansionPricedBeforeBuild holds both compile routes to
// refusing an inline Hamiltonian over the monomial cap with a structured
// 422 at parse cost, before any expansion.
func TestInlineExpansionPricedBeforeBuild(t *testing.T) {
	srv, _, _ := testServer(t, "")
	for _, route := range []string{"/v1/compile", "/v1/jobs"} {
		start := time.Now()
		resp, body := postJSON(t, srv.URL+route, longTermBody())
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422 (%v)", route, resp.StatusCode, body)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "Majorana monomials") {
			t.Fatalf("%s: error %q does not name the monomial cap", route, msg)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Fatalf("%s: refusing took %v", route, d)
		}
	}
}

func TestSyncCompileTimeout(t *testing.T) {
	b := newBlocking(t)
	srv, _, _ := testServer(t, "")
	defer close(b.release)

	resp, body := postJSON(t, srv.URL+"/v1/compile",
		fmt.Sprintf(`{"model":"h2","method":%q,"timeout_ms":50}`, b.name))
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("timed-out compile: %d %v", resp.StatusCode, body)
	}
}
