package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/pkg/compiler"
)

// fuzzAPI builds an API whose expensive compile stage is stubbed out, so
// the fuzzer exercises exactly the surface under test — HTTP decode,
// validation, and error shaping — at full speed. The model cap is small
// so decode-time model construction stays cheap even for valid inputs.
func fuzzAPI(t testing.TB) (*API, func()) {
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	a := NewAPI(mgr, nil, WithMaxModes(8))
	a.compile = func(ctx context.Context, req *compileRequest) (*compiler.Result, int, error) {
		m := mapping.JordanWigner(req.mh.Modes)
		return &compiler.Result{Method: req.Method, Mapping: m}, http.StatusOK, nil
	}
	return a, func() { _ = mgr.Shutdown(context.Background()) }
}

// FuzzCompileRequestDecoder holds POST /v1/compile to its contract:
// whatever bytes arrive — malformed JSON, truncated bodies, absurd
// option values, oversized models — the server answers with structured
// JSON and never a 5xx (which would mean a panic or an unclassified
// failure escaped the decoder).
func FuzzCompileRequestDecoder(f *testing.F) {
	seeds := []string{
		`{"model":"h2","method":"hatt"}`,
		`{"model":"hubbard:2x2","method":"beam:8","include_strings":true}`,
		`{"model":"hubbard:2x2","method":"beam:4","options":{"seed":7}}`,
		`{"model":"molecule:4","method":"anneal","options":{"anneal_iters":10,"anneal_t_start":2,"anneal_t_end":0.1}}`,
		`{"hamiltonian":{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":0,"dagger":true},{"mode":0,"dagger":false}]}]}}`,
		// Malformed and truncated bodies.
		`{"model":"h2"`,
		`{`,
		``,
		`null`,
		`[]`,
		`42`,
		`"model"`,
		`{"model":"h2"} trailing`,
		`{"model":"h2","method":"hatt","options":`,
		// Unknown fields and wrong types.
		`{"modell":"h2"}`,
		`{"model":12}`,
		`{"model":"h2","options":{"seed":"wide"}}`,
		`{"model":"h2","options":[1,2,3]}`,
		`{"hamiltonian":"not an object"}`,
		// Absurd values.
		`{"model":"hubbard:999999x999999"}`,
		`{"model":"hubbard:-3x2"}`,
		`{"model":"molecule:7"}`,
		`{"model":"h2","method":"beam:0"}`,
		`{"model":"h2","method":"fh:-5"}`,
		`{"model":"h2","method":"beam:2147483647"}`,
		`{"model":"h2","method":"fh:-9223372036854775808"}`,
		`{"model":"h2","options":{"anneal_iters":999999999999}}`,
		`{"model":"h2","options":{"anneal_t_start":1e308,"anneal_t_end":-1}}`,
		`{"model":"h2","options":{"anneal_restarts":-1}}`,
		`{"model":"h2","options":{"parallelism":1000000}}`,
		`{"model":"h2","options":{"tie_break":"diagonal"}}`,
		`{"model":"h2","timeout_ms":-4}`,
		`{"hamiltonian":{"modes":0,"terms":[]}}`,
		`{"hamiltonian":{"modes":2,"terms":[{"coeff":[1,0],"ops":[{"mode":9,"dagger":true}]}]}}`,
		`{"hamiltonian":{"modes":1000000,"terms":[]}}`,
		longTermBody(),
		// Deep nesting probes the JSON decoder's recursion guard.
		`{"model":` + strings.Repeat(`[`, 500) + strings.Repeat(`]`, 500) + `}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	a, stop := fuzzAPI(f)
	defer stop()
	handler := a.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(body))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)

		if rr.Code >= 500 {
			t.Fatalf("5xx (%d) for body %q: %s", rr.Code, body, rr.Body.String())
		}
		var payload map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
			t.Fatalf("non-JSON response (%d) for body %q: %s", rr.Code, body, rr.Body.String())
		}
		if rr.Code >= 400 {
			msg, _ := payload["error"].(string)
			if msg == "" {
				t.Fatalf("unstructured %d error for body %q: %s", rr.Code, body, rr.Body.String())
			}
			if payload["status"] != float64(rr.Code) {
				t.Fatalf("error body status %v != header %d for body %q", payload["status"], rr.Code, body)
			}
		}
	})
}

// TestOutOfRangeOptionsRefusedAtDecode sends the out-of-range option
// and spec-parameter seeds of FuzzCompileRequestDecoder, and the option
// fields that are now spec parameters, through fuzzAPI, whose compile
// stage is a stub: decode validates options and resolves the spec, so
// each is a 400 before any compile runs.
func TestOutOfRangeOptionsRefusedAtDecode(t *testing.T) {
	a, stop := fuzzAPI(t)
	defer stop()
	handler := a.Handler()
	for _, body := range []string{
		`{"model":"h2","method":"beam:2147483647"}`,
		`{"model":"h2","method":"beam:100000"}`,
		`{"model":"h2","method":"portfolio:hatt+beam:100000"}`,
		`{"model":"h2","method":"fh:-9223372036854775808"}`,
		`{"model":"h2","method":"beam","options":{"beam_width":8}}`,
		`{"model":"h2","method":"fh","options":{"visit_budget":100}}`,
		`{"model":"h2","options":{"anneal_iters":999999999999}}`,
		`{"model":"h2","options":{"anneal_t_start":1e308,"anneal_t_end":-1}}`,
		`{"model":"h2","options":{"anneal_restarts":-1}}`,
		`{"model":"h2","options":{"parallelism":1000000}}`,
		`{"model":"h2","options":{"tie_break":"diagonal"}}`,
	} {
		for _, route := range []string{"/v1/compile", "/v1/jobs"} {
			rr := httptest.NewRecorder()
			handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
			if rr.Code != http.StatusBadRequest {
				t.Errorf("%s %s: %d %s, want 400", route, body, rr.Code, rr.Body.String())
			}
		}
	}
}
