package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis/annotations"
	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/models"
	"repro/internal/store"
	"repro/pkg/compiler"
)

// TestCompileWithDeviceOverHTTP is the route-smoke path in miniature:
// a device-targeted compile returns routed metrics whose QASM respects
// the coupling graph, and a repeat is served cached with a
// byte-identical routed circuit.
func TestCompileWithDeviceOverHTTP(t *testing.T) {
	srv, st, _ := testServer(t, "")
	req := `{"model":"hubbard:2x2","method":"hatt","device":"montreal","include_strings":true}`

	r1, b1 := postJSON(t, srv.URL+"/v1/compile", req)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %v", r1.StatusCode, b1)
	}
	routed, ok := b1["routed"].(map[string]any)
	if !ok {
		t.Fatalf("no routed block in %v", b1)
	}
	if routed["device"] != "Montreal" || routed["physical_qubits"] != float64(27) {
		t.Errorf("routed = %v", routed)
	}
	qasm, _ := routed["qasm"].(string)
	if qasm == "" {
		t.Fatal("routed QASM missing under include_strings")
	}
	cc, err := circuit.ReadQASM(strings.NewReader(qasm))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := arch.Lookup("montreal")
	if err := arch.CheckCoupling(cc, d); err != nil {
		t.Errorf("routed circuit violates coupling: %v", err)
	}

	r2, b2 := postJSON(t, srv.URL+"/v1/compile", req)
	if r2.StatusCode != http.StatusOK || b2["cached"] != true {
		t.Fatalf("repeat compile: %d cached=%v", r2.StatusCode, b2["cached"])
	}
	routed2 := b2["routed"].(map[string]any)
	if routed2["qasm"] != qasm {
		t.Error("cached routed circuit not byte-identical")
	}
	if got := st.Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("store stats = %+v", got)
	}
	// A hit without include_strings serves the stored summary: the same
	// routed block, minus the circuit.
	r4, b4 := postJSON(t, srv.URL+"/v1/compile",
		`{"model":"hubbard:2x2","method":"hatt","device":"montreal"}`)
	if r4.StatusCode != http.StatusOK || b4["cached"] != true {
		t.Fatalf("summary hit: %d cached=%v", r4.StatusCode, b4["cached"])
	}
	delete(routed, "qasm")
	if !reflect.DeepEqual(b4["routed"], any(routed)) {
		t.Errorf("summary hit routed = %v, want %v", b4["routed"], routed)
	}

	// Without include_strings the metrics come back but not the circuit.
	r3, b3 := postJSON(t, srv.URL+"/v1/compile",
		`{"model":"h2","method":"hatt","device":"montreal"}`)
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("bare compile: %d %v", r3.StatusCode, b3)
	}
	bare := b3["routed"].(map[string]any)
	if _, has := bare["qasm"]; has {
		t.Error("QASM leaked without include_strings")
	}
}

func TestCompileWithCustomDeviceOverHTTP(t *testing.T) {
	srv, _, _ := testServer(t, "")
	req := `{"model":"h2","method":"jw","include_strings":true,
	         "custom_device":{"name":"ring6","qubits":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}}`
	r, b := postJSON(t, srv.URL+"/v1/compile", req)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %v", r.StatusCode, b)
	}
	routed := b["routed"].(map[string]any)
	if routed["device"] != "ring6" || routed["physical_qubits"] != float64(6) {
		t.Errorf("routed = %v", routed)
	}
}

func TestDeviceRequestValidation(t *testing.T) {
	srv, _, _ := testServer(t, "")
	cases := []struct {
		body string
		code int
	}{
		// Unknown catalog device.
		{`{"model":"h2","device":"ibmq-rome"}`, http.StatusBadRequest},
		// Malformed custom-device JSON: structured 4xx, never a 500.
		{`{"model":"h2","custom_device":"ring"}`, http.StatusBadRequest},
		{`{"model":"h2","custom_device":{"name":"x","qubits":2,"edges":[[0,5]]}}`, http.StatusBadRequest},
		{`{"model":"h2","custom_device":{"name":"x","qubits":-1,"edges":[]}}`, http.StatusBadRequest},
		{`{"model":"h2","custom_device":{"qubits":2,"edges":[[0,1]]}}`, http.StatusBadRequest},
		// Both targeting forms at once.
		{`{"model":"h2","device":"montreal","custom_device":{"name":"x","qubits":2,"edges":[[0,1]]}}`, http.StatusBadRequest},
		// Device too small for the problem: compile-time 4xx.
		{`{"model":"hubbard:2x2","device":"linear:4"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		r, b := postJSON(t, srv.URL+"/v1/compile", c.body)
		if r.StatusCode != c.code {
			t.Errorf("%s → %d (%v), want %d", c.body, r.StatusCode, b["error"], c.code)
		}
		if _, ok := b["error"].(string); !ok {
			t.Errorf("%s → unstructured error payload %v", c.body, b)
		}
	}
}

func TestAsyncJobCarriesRoutedMetrics(t *testing.T) {
	srv, _, mgr := testServer(t, "")
	r, b := postJSON(t, srv.URL+"/v1/jobs",
		`{"model":"h2","method":"hatt","device":"grid:2x3"}`)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", r.StatusCode, b)
	}
	id := b["id"].(string)
	if _, err := mgr.Wait(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	rs, body := getJSON(t, srv.URL+"/v1/jobs/"+id)
	if rs.StatusCode != http.StatusOK || body["state"] != "done" {
		t.Fatalf("job status: %d %v", rs.StatusCode, body)
	}
	result := body["result"].(map[string]any)
	routed, ok := result["routed"].(map[string]any)
	if !ok {
		t.Fatalf("job result missing routed block: %v", result)
	}
	if routed["device"] != "grid:2x3" {
		t.Errorf("routed = %v", routed)
	}
	if _, has := routed["qasm"]; has {
		t.Error("routed QASM embedded without include_strings")
	}

	// With include_strings the poll carries the routed circuit too.
	r2, b2 := postJSON(t, srv.URL+"/v1/jobs",
		`{"model":"h2","method":"jw","device":"grid:2x3","include_strings":true}`)
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", r2.StatusCode, b2)
	}
	id2 := b2["id"].(string)
	if _, err := mgr.Wait(t.Context(), id2); err != nil {
		t.Fatal(err)
	}
	_, body2 := getJSON(t, srv.URL+"/v1/jobs/"+id2)
	routed2 := body2["result"].(map[string]any)["routed"].(map[string]any)
	qasm, _ := routed2["qasm"].(string)
	if qasm == "" {
		t.Error("routed QASM missing despite include_strings")
	}

	// A repeat job is a store hit: its poll derives the circuit from the
	// stored mapping, byte-identical to the first job's.
	r3, b3 := postJSON(t, srv.URL+"/v1/jobs",
		`{"model":"h2","method":"jw","device":"grid:2x3","include_strings":true}`)
	if r3.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", r3.StatusCode, b3)
	}
	id3 := b3["id"].(string)
	if _, err := mgr.Wait(t.Context(), id3); err != nil {
		t.Fatal(err)
	}
	_, body3 := getJSON(t, srv.URL+"/v1/jobs/"+id3)
	result3 := body3["result"].(map[string]any)
	if result3["cached"] != true || result3["routed"].(map[string]any)["qasm"] != qasm {
		t.Errorf("cached job: cached=%v, QASM byte-identical=%v", result3["cached"],
			result3["routed"].(map[string]any)["qasm"] == qasm)
	}
}

// TestRoutedSummaryContradictionIs500: QASM is never served next to
// counts it contradicts. A stored summary that disagrees with the
// circuit re-derived from the mapping fails the request that asked for
// the circuit.
func TestRoutedSummaryContradictionIs500(t *testing.T) {
	srv, st, _ := testServer(t, "")
	if r, b := postJSON(t, srv.URL+"/v1/compile", `{"model":"h2","method":"hatt","device":"montreal"}`); r.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %v", r.StatusCode, b)
	}
	h, err := models.Resolve("h2")
	if err != nil {
		t.Fatal(err)
	}
	key := store.Key{Hamiltonian: h.Majorana(1e-12).Fingerprint(), Spec: "hatt",
		Options: compiler.NewOptions(compiler.WithDevice("montreal")).Digest()}
	e, ok := st.Get(key)
	if !ok || e.Routed == nil {
		t.Fatalf("entry %+v has no routed summary", e)
	}
	e.Routed.Depth++
	st.Put(key, e)

	r, b := postJSON(t, srv.URL+"/v1/compile", `{"model":"h2","method":"hatt","device":"montreal","include_strings":true}`)
	if msg, _ := b["error"].(string); r.StatusCode != http.StatusInternalServerError || !strings.Contains(msg, "contradicts") {
		t.Fatalf("contradicting summary with QASM: %d %v", r.StatusCode, b)
	}
}

func TestDevicesEndpoint(t *testing.T) {
	srv, _, _ := testServer(t, "")
	r, b := getJSON(t, srv.URL+"/v1/devices")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("devices: %d", r.StatusCode)
	}
	devices, ok := b["devices"].([]any)
	if !ok || len(devices) < 5 {
		t.Fatalf("devices payload = %v", b)
	}
	seen := map[string]bool{}
	for _, d := range devices {
		entry := d.(map[string]any)
		seen[entry["spec"].(string)] = true
	}
	for _, want := range []string{"manhattan", "sycamore", "montreal"} {
		if !seen[want] {
			t.Errorf("catalog listing missing %s (got %v)", want, seen)
		}
	}
}

// TestRoutedHitBuildsDeviceOnce gates the allocations of a routed sync
// store hit on grid:6x6. Building that device takes about 95
// allocations. The request validates the spec without building it and
// the compile builds it once, for the store key: 318 allocations with Go
// 1.24, against 413 when validation built the device too. The budget
// sits between the two.
func TestRoutedHitBuildsDeviceOnce(t *testing.T) {
	if annotations.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	st, err := store.Open(64, "")
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(Config{Workers: 1, QueueDepth: 1, Store: st})
	t.Cleanup(func() { _ = mgr.Shutdown(context.Background()) })
	h := NewAPI(mgr, st).Handler()
	const body = `{"model":"h2","method":"hatt","device":"grid:6x6"}`
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("routed compile: %d %s", rec.Code, rec.Body)
		}
	}
	serve() // the miss that fills the store
	if n := testing.AllocsPerRun(50, serve); n > 365 {
		t.Fatalf("routed sync hit allocates %.0f/op, want ≤ 365", n)
	}
}
