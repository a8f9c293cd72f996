package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/mapping"
	"repro/internal/pauli"
	"repro/internal/store"
	"repro/pkg/compiler"
)

// ledgerServer is testServer plus an attached portfolio ledger.
func ledgerServer(t *testing.T, led *store.Ledger) *httptest.Server {
	t.Helper()
	st, err := store.Open(64, "")
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(Config{Workers: 2, QueueDepth: 8, Store: st, Ledger: led})
	srv := httptest.NewServer(NewAPI(mgr, st, WithLedger(led)).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return srv
}

// remapPartial re-runs the partial block's mapping through the same
// anticommutation validation the fleet fill applies to arriving entries.
func remapPartial(t *testing.T, partial map[string]any) *mapping.Mapping {
	t.Helper()
	modes := int(partial["modes"].(float64))
	raw, ok := partial["mapping"].([]any)
	if !ok || len(raw) != 2*modes {
		t.Fatalf("partial mapping has %d strings, want %d", len(raw), 2*modes)
	}
	m := &mapping.Mapping{Name: "partial", Modes: modes, Majoranas: make([]pauli.String, len(raw))}
	for i, v := range raw {
		s, err := pauli.Parse(v.(string))
		if err != nil {
			t.Fatalf("partial string %d: %v", i, err)
		}
		m.Majoranas[i] = s
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("partial mapping fails anticommutation validation: %v", err)
	}
	return m
}

// submitLongPortfolio submits an anneal-heavy portfolio job that runs
// long enough for pollers to observe the race mid-flight.
func submitLongPortfolio(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, body := postJSON(t, srv.URL+"/v1/jobs",
		`{"model":"molecule:12","method":"portfolio:hatt+anneal",
		  "options":{"anneal_iters":2000000,"seed":7}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("submit payload = %v", body)
	}
	return id
}

// TestJobPartialMonotoneAcrossPolls is the anytime property test: the
// partial weight a poller sees never increases from poll to poll, every
// partial passes algebra re-validation, and the final result is at
// least as good as the last partial.
func TestJobPartialMonotoneAcrossPolls(t *testing.T) {
	srv, _, _ := testServer(t, "")
	id := submitLongPortfolio(t, srv)

	var weights []int
	sawMidRun := false
	deadline := time.After(60 * time.Second)
	for {
		_, job := getJSON(t, srv.URL+"/v1/jobs/"+id+"?include_partial=true")
		if partial, ok := job["partial"].(map[string]any); ok {
			w := int(partial["pauli_weight"].(float64))
			m := remapPartial(t, partial)
			if got := len(m.Majoranas); got == 0 {
				t.Fatal("empty partial mapping")
			}
			if partial["method"] == "" {
				t.Fatalf("partial without producing method: %v", partial)
			}
			if len(weights) == 0 || w != weights[len(weights)-1] {
				weights = append(weights, w)
			}
			if job["state"] == string(StateRunning) {
				sawMidRun = true
			}
		}
		switch job["state"] {
		case "done":
			if len(weights) == 0 {
				t.Fatal("no partial observed on any poll")
			}
			for i := 1; i < len(weights); i++ {
				if weights[i] > weights[i-1] {
					t.Fatalf("partial weight increased across polls: %v", weights)
				}
			}
			result := job["result"].(map[string]any)
			if fw := int(result["pauli_weight"].(float64)); fw > weights[len(weights)-1] {
				t.Fatalf("final weight %d worse than last partial %d", fw, weights[len(weights)-1])
			}
			if !sawMidRun {
				t.Log("job finished before a running-state partial was observed (fast machine); monotonicity still held")
			}
			return
		case "failed", "canceled":
			t.Fatalf("job ended %v: %v", job["state"], job)
		}
		select {
		case <-deadline:
			t.Fatal("job never finished")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestCancelWithPartialReturnsIncumbent pins the anytime bail-out:
// DELETE ?result=partial cancels the job and hands back the validated
// best-so-far mapping in the shared result envelope.
func TestCancelWithPartialReturnsIncumbent(t *testing.T) {
	srv, _, _ := testServer(t, "")
	id := submitLongPortfolio(t, srv)

	// Wait for a validated incumbent to exist before bailing out.
	deadline := time.After(60 * time.Second)
	for {
		_, job := getJSON(t, srv.URL+"/v1/jobs/"+id+"?include_partial=true")
		if job["state"] == "done" {
			t.Skip("job finished before cancel could race it")
		}
		if _, ok := job["partial"].(map[string]any); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no partial ever appeared")
		case <-time.After(2 * time.Millisecond):
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id+"?result=partial", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	partial, ok := body["partial"].(map[string]any)
	if !ok {
		t.Fatalf("cancel-with-partial returned no partial block: %v", body)
	}
	m := remapPartial(t, partial)
	if w := int(partial["pauli_weight"].(float64)); w <= 0 {
		t.Fatalf("partial weight %d", w)
	}
	if m.Qubits() != int(partial["qubits"].(float64)) {
		t.Fatalf("qubits mismatch: mapping %d, envelope %v", m.Qubits(), partial["qubits"])
	}

	// The incumbent survives the terminal state: a later poll still
	// serves it under include_partial.
	_, job := getJSON(t, srv.URL+"/v1/jobs/"+id+"?include_partial=true")
	if _, ok := job["partial"].(map[string]any); !ok {
		t.Fatalf("partial gone after cancel: %v", job)
	}
	// ...but a plain DELETE response keeps the bare status wire shape.
	req2, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var plain map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	if _, has := plain["partial"]; has {
		t.Fatalf("plain DELETE grew a partial field: %v", plain)
	}
}

// TestJobProgressKeyedByMethod pins that a portfolio job's racers do
// not clobber each other's progress snapshots, and that the aggregate
// best weight is the minimum across the racers that finished. A racer
// the shared incumbent bound abandons emits no StageDone, so its entry
// stays at stage start with no weight; only finished racers are held to
// a positive weight.
func TestJobProgressKeyedByMethod(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	st, _, err := mgr.Submit(Request{
		Model: "molecule:8",
		Spec:  "portfolio:hatt+anneal",
		Options: []compiler.Option{
			compiler.WithSeed(3),
			compiler.WithAnnealSchedule(5000, 0, 0),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fin, err := mgr.Wait(ctx, st.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("job ended %v err=%v", fin.State, err)
	}
	for _, spec := range []string{"hatt", "anneal"} {
		if _, ok := fin.ProgressByMethod[spec]; !ok {
			t.Errorf("progress_by_method missing racer %q: %v", spec, fin.ProgressByMethod)
		}
	}
	minBest := 0
	for spec, p := range fin.ProgressByMethod {
		if p.Stage != compiler.StageDone {
			continue
		}
		if p.BestWeight <= 0 {
			t.Errorf("racer %q finished with best_weight %d", spec, p.BestWeight)
		}
		if minBest == 0 || p.BestWeight < minBest {
			minBest = p.BestWeight
		}
	}
	if minBest == 0 {
		t.Fatalf("no racer reported done: %v", fin.ProgressByMethod)
	}
	if fin.Progress.BestWeight != minBest {
		t.Errorf("aggregate best_weight %d, want min across finished racers %d", fin.Progress.BestWeight, minBest)
	}
}

// TestPortfolioStatsEndpoint drives a sync portfolio compile through a
// ledger-wired API and checks GET /v1/portfolio/stats reports the win —
// then proves the ledger (and so the stats) survives a daemon restart.
func TestPortfolioStatsEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "portfolio_ledger.json")
	led, err := store.OpenLedger(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := ledgerServer(t, led)

	resp, body := postJSON(t, srv.URL+"/v1/compile",
		`{"model":"molecule:8","method":"portfolio:hatt+jw","options":{"seed":5}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %v", resp.StatusCode, body)
	}

	rs, stats := getJSON(t, srv.URL+"/v1/portfolio/stats")
	if rs.StatusCode != http.StatusOK {
		t.Fatalf("portfolio stats: %d", rs.StatusCode)
	}
	ledger, ok := stats["ledger"].(map[string]any)
	if !ok || ledger["plays"].(float64) < 1 {
		t.Fatalf("stats ledger block = %v, want ≥ 1 play", stats)
	}
	shapes, _ := ledger["shapes"].([]any)
	if len(shapes) == 0 {
		t.Fatalf("ledger has no shapes: %v", ledger)
	}
	wins := 0.0
	for _, s := range shapes {
		for _, m := range s.(map[string]any)["methods"].([]any) {
			wins += m.(map[string]any)["wins"].(float64)
		}
	}
	if wins < 1 {
		t.Fatalf("no wins recorded: %v", ledger)
	}
	if stats["races"].(float64) < 1 {
		t.Fatalf("races counter = %v", stats["races"])
	}

	// "Restart": a fresh stack over the same ledger file reports the
	// same rows before running anything.
	led2, err := store.OpenLedger(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := ledgerServer(t, led2)
	_, stats2 := getJSON(t, srv2.URL+"/v1/portfolio/stats")
	ledger2 := stats2["ledger"].(map[string]any)
	if ledger2["plays"] != ledger["plays"] {
		t.Fatalf("ledger plays lost across restart: %v vs %v", ledger2["plays"], ledger["plays"])
	}
	b1, _ := json.Marshal(ledger["shapes"])
	b2, _ := json.Marshal(ledger2["shapes"])
	if !bytes.Equal(b1, b2) {
		t.Fatalf("ledger rows changed across restart:\n%s\n%s", b1, b2)
	}
}

// TestPortfolioStatsWithoutLedger: the route serves an empty—but
// well-formed—payload when the daemon runs without a ledger.
func TestPortfolioStatsWithoutLedger(t *testing.T) {
	srv, _, _ := testServer(t, "")
	rs, stats := getJSON(t, srv.URL+"/v1/portfolio/stats")
	if rs.StatusCode != http.StatusOK {
		t.Fatalf("portfolio stats: %d", rs.StatusCode)
	}
	ledger, ok := stats["ledger"].(map[string]any)
	if !ok {
		t.Fatalf("no ledger block: %v", stats)
	}
	if _, ok := ledger["shapes"].([]any); !ok {
		t.Fatalf("ledger shapes not an array: %v", ledger)
	}
}

// TestPortfolioOutcomeKeys pins the documented method/outcome/count keys
// on both surfaces that serve the race counters.
func TestPortfolioOutcomeKeys(t *testing.T) {
	srv, _, _ := testServer(t, "")
	resp, body := postJSON(t, srv.URL+"/v1/compile", `{"model":"h2","method":"portfolio:hatt+jw"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %v", resp.StatusCode, body)
	}
	_, stats := getJSON(t, srv.URL+"/v1/stats")
	portfolio, _ := stats["portfolio"].(map[string]any)
	_, pstats := getJSON(t, srv.URL+"/v1/portfolio/stats")
	for surface, outcomes := range map[string]any{
		"/v1/stats portfolio": portfolio["outcomes"],
		"/v1/portfolio/stats": pstats["outcomes"],
	} {
		rows, _ := outcomes.([]any)
		if len(rows) == 0 {
			t.Fatalf("%s: no outcomes in %v", surface, outcomes)
		}
		for _, row := range rows {
			r, _ := row.(map[string]any)
			_, m := r["method"].(string)
			_, o := r["outcome"].(string)
			_, c := r["count"].(float64)
			if len(r) != 3 || !m || !o || !c {
				t.Fatalf("%s: outcome row %v, want keys method, outcome, count", surface, row)
			}
		}
	}
}

// strictDecode proves a payload decodes into a struct with
// DisallowUnknownFields — i.e. the wire carries no fields beyond the
// declared shape.
func strictDecode(t *testing.T, data []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("wire shape drifted: %v\npayload: %s", err, data)
	}
}

// TestResponseWireShapes is the envelope-unification decoder test: the
// sync compile response and the job response decode — unknown fields
// disallowed — into mirrors of the documented shapes, proving the
// refactor onto one shared envelope changed no existing field and added
// only the documented ones.
func TestResponseWireShapes(t *testing.T) {
	type routedShape struct {
		Device      string `json:"device"`
		PhysQubits  int    `json:"physical_qubits"`
		SwapsAdded  int    `json:"swaps_added"`
		CNOTs       int    `json:"cnots"`
		Singles     int    `json:"u3s"`
		Depth       int    `json:"depth"`
		FinalLayout []int  `json:"final_layout"`
		QASM        string `json:"qasm"`
	}
	type envelopeShape struct {
		Model       string          `json:"model"`
		Method      string          `json:"method"`
		Modes       int             `json:"modes"`
		Qubits      int             `json:"qubits"`
		PauliWeight int             `json:"pauli_weight"`
		Optimal     bool            `json:"optimal"`
		Cached      bool            `json:"cached"`
		ElapsedMS   float64         `json:"elapsed_ms"`
		Mapping     []string        `json:"mapping"`
		Routed      *routedShape    `json:"routed"`
		TraceID     string          `json:"trace_id"`
		Trace       json.RawMessage `json:"trace"`
	}
	type jobShape struct {
		ID               string              `json:"id"`
		State            string              `json:"state"`
		Model            string              `json:"model"`
		Spec             string              `json:"spec"`
		Attached         int                 `json:"attached"`
		Progress         Progress            `json:"progress"`
		ProgressByMethod map[string]Progress `json:"progress_by_method"`
		Error            string              `json:"error"`
		Created          time.Time           `json:"created"`
		Elapsed          int64               `json:"elapsed"`
		TraceID          string              `json:"trace_id"`
		Result           *envelopeShape      `json:"result"`
		Partial          *envelopeShape      `json:"partial"`
		Trace            json.RawMessage     `json:"trace"`
	}

	srv, _, _ := testServer(t, "")
	resp, err := http.Post(srv.URL+"/v1/compile", "application/json",
		bytes.NewReader([]byte(`{"model":"h2","method":"hatt","include_strings":true,"device":"linear:4"}`)))
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, raw)
	}
	var env envelopeShape
	strictDecode(t, []byte(raw), &env)
	if env.Model != "h2" || env.Method != "hatt" || env.PauliWeight == 0 || len(env.Mapping) == 0 || env.Routed == nil {
		t.Fatalf("sync envelope missing fields: %+v", env)
	}

	_, sub := postJSON(t, srv.URL+"/v1/jobs", `{"model":"h2","method":"portfolio:hatt+jw"}`)
	id, _ := sub["id"].(string)
	deadline := time.After(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + id + "?include_partial=true")
		if err != nil {
			t.Fatal(err)
		}
		raw := readAll(t, r)
		var job jobShape
		strictDecode(t, []byte(raw), &job)
		if job.State == string(StateDone) {
			if job.Result == nil || len(job.Result.Mapping) == 0 {
				t.Fatalf("done job result incomplete: %s", raw)
			}
			return
		}
		if job.State == string(StateFailed) || job.State == string(StateCanceled) {
			t.Fatalf("job ended %s: %s", job.State, raw)
		}
		select {
		case <-deadline:
			t.Fatal("job never finished")
		case <-time.After(2 * time.Millisecond):
		}
	}
}
