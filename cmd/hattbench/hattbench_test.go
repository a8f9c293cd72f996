package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func TestStreamIsAFunctionOfSeedAndIndex(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		body := func(seed, j uint64) []byte {
			raw, err := json.Marshal(w.request(seed, j))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		differs := false
		for j := uint64(0); j < 40; j++ {
			a, b := body(7, j), body(7, j)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: request %d differs between two generations with seed 7", w.name, j)
			}
			if !bytes.Equal(a, body(8, j)) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same first 40 requests", w.name)
		}
	}
}

func TestInlineStructuresAreUnique(t *testing.T) {
	w, err := lookupWorkload("miss-inline")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2, 99} {
		share, err := w.uniqueStructureShare(seed, 200)
		if err != nil {
			t.Fatal(err)
		}
		if share < 0.95 {
			t.Errorf("seed %d: unique structure share %.3f < 0.95", seed, share)
		}
	}
	// Every request must be a store miss, so no two may share a content
	// address, even where their structures coincide.
	seen := make(map[string]uint64)
	for i := uint64(0); i < 2000; i++ {
		b := w.request(1, i)
		mh, err := majoranaOf(&b)
		if err != nil {
			t.Fatal(err)
		}
		fp := mh.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Fatalf("requests %d and %d are the same Hamiltonian", j, i)
		}
		seen[fp] = i
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
	// 1000 samples leave exactly 10 beyond the 99th percentile.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 150}, {140, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"unsorted", []interval{{150, 170}, {110, 120}, {115, 155}}, 40},
		{"clipped to the span", []interval{{50, 120}, {180, 250}}, 60},
		{"outside the span", []interval{{0, 50}, {300, 400}}, 100},
		{"covering the span", []interval{{90, 210}}, 0},
	} {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
}

func TestKeptPeriods(t *testing.T) {
	// p builds a period in which steal of every 100 jiffies were stolen.
	p := func(steal uint64) period {
		return period{busy: 100 - steal, steal: steal, latencies: []float64{float64(steal)}}
	}
	for _, c := range []struct {
		name   string
		steals []uint64
		want   []float64 // kept periods' latencies, least stolen first
	}{
		{"calm: every period counts", []uint64{1, 0, 2, 1}, []float64{0, 1, 1, 2}},
		{"stolen periods dropped", []uint64{0, 30, 1, 2, 9, 0}, []float64{0, 0, 1, 2}},
		{"never fewer than a fifth", []uint64{40, 10, 20, 30, 50, 60, 70, 80, 90, 35}, []float64{10, 20}},
		{"one period", []uint64{60}, []float64{60}},
		{"none", nil, nil},
	} {
		var all []period
		for _, s := range c.steals {
			all = append(all, p(s))
		}
		var got []float64
		for _, k := range keptPeriods(all) {
			got = append(got, k.latencies...)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
		}
	}
	m := merge([]period{
		{dur: time.Second, busy: 90, steal: 10, cpu: 1, latencies: []float64{3, 1}},
		{dur: time.Second, busy: 80, steal: 20, cpu: 0.5, latencies: []float64{2}},
	})
	if m.dur != 2*time.Second || m.cpu != 1.5 || m.stolen() != 0.15 || fmt.Sprint(m.latencies) != "[1 2 3]" {
		t.Errorf("merge = %+v, stolen %v", m, m.stolen())
	}
}

func TestNamedStreamsAreBalanced(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.inline {
			continue
		}
		n := len(w.models) * len(w.methods)
		for _, seed := range []uint64{1, 2} {
			for run := 0; run < 5; run++ {
				seen := make(map[string]bool)
				for j := run * n; j < (run+1)*n; j++ {
					b := w.request(seed, uint64(j))
					seen[comboKey(&b)] = true
				}
				if len(seen) != n {
					t.Errorf("%s seed %d: requests %d..%d hold %d of the %d combinations", w.name, seed, run*n, (run+1)*n-1, len(seen), n)
				}
			}
		}
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The part of BENCHMARK.json the code must agree with.
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var inFile, inCode []string
	for _, w := range bj.Workloads {
		inFile = append(inFile, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		inCode = append(inCode, w.name+": "+w.why)
	}
	sameSet(t, "workloads", inFile, inCode)
	for _, c := range []struct {
		section string
		file    []struct{ Name, Unit, Better string }
		code    []metricDef
	}{
		{"end_to_end", bj.EndToEnd, endToEnd},
		{"per_layer", bj.PerLayer, perLayer()},
	} {
		inFile, inCode = nil, nil
		for _, m := range c.file {
			inFile = append(inFile, m.Name+" "+m.Unit+" "+m.Better)
		}
		for _, m := range c.code {
			inCode = append(inCode, m.name+" "+m.unit+" "+m.better)
		}
		sameSet(t, c.section, inFile, inCode)
	}
}

// sameSet reports every entry that only one of the two lists holds.
func sameSet(t *testing.T, what string, file, code []string) {
	t.Helper()
	count := make(map[string]int)
	for _, s := range file {
		count[s]++
	}
	for _, s := range code {
		count[s]--
	}
	for s, n := range count {
		switch {
		case n > 0:
			t.Errorf("%s: BENCHMARK.json has %q, the code does not", what, s)
		case n < 0:
			t.Errorf("%s: the code has %q, BENCHMARK.json does not", what, s)
		}
	}
}

// TestReplaySmoke runs passes U, T and H on a short prefix of every
// workload and checks the per-layer metrics they yield.
func TestReplaySmoke(t *testing.T) {
	const n = 12
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			pt, err := replayPasses(context.Background(), w, 3, n, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			got := layerMetrics(pt)
			want := make(map[string]bool)
			for _, d := range perLayer() {
				want[d.name] = true
			}
			var shares float64
			for name, v := range got {
				if !want[name] {
					t.Errorf("layerMetrics emits %s, which perLayer does not define", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
				if filepath.Ext(name) == ".share" {
					shares += v
				}
			}
			for _, s := range layerSpans {
				if _, ok := got[s+".share"]; !ok {
					t.Errorf("no %s.share", s)
				}
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("shares sum to %v, want 1", shares)
			}
			if got["store.get.calls"] != n || got["service.self.calls"] != n {
				t.Errorf("store.get.calls %v, service.self.calls %v, want %d each", got["store.get.calls"], got["service.self.calls"], n)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := writeTrace(path, w.name, 3, pt.spans); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWindowAndOracle drives a short closed-loop window and the output
// oracle against an in-process service for every workload.
func TestWindowAndOracle(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			st, err := store.Open(0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			mgr := service.New(service.Config{Store: st})
			defer mgr.Shutdown(context.Background())
			srv := httptest.NewServer(service.NewAPI(mgr, st,
				service.WithObservability(obs.NewRegistry(), obs.NewTracer(obs.DefaultTraceCapacity))).Handler())
			defer srv.Close()
			client := srv.Client()
			ctx := context.Background()

			exp, err := warmUp(ctx, client, srv.URL, w, 5)
			if err != nil {
				t.Fatal(err)
			}
			win, err := driveWindow(ctx, client, srv.URL, w, 5, exp, 2, 200*time.Millisecond,
				hostMeter(func() (float64, error) { return 0, nil }))
			if err != nil {
				t.Fatal(err)
			}
			if win.failed > 0 || win.attempted == 0 {
				t.Fatalf("window: %d of %d failed, first: %v", win.failed, win.attempted, win.firstErr)
			}
			if len(win.periods) != 1 || len(win.periods[0].latencies) != win.attempted {
				t.Errorf("%d periods for a 200ms window, %d of %d requests filed", len(win.periods), len(merge(win.periods).latencies), win.attempted)
			}
			oc := checkOutputs(ctx, client, srv.URL, w, 5)
			if len(oc.failures) > 0 {
				t.Fatalf("oracle: %d failures, first: %v", len(oc.failures), oc.failures[0])
			}
			if oc.sent != 2*verifySetSize || oc.weightSum <= 0 || oc.cnotSum <= 0 {
				t.Errorf("oracle sent %d, weight sum %d, CNOT sum %d", oc.sent, oc.weightSum, oc.cnotSum)
			}
		})
	}
}

func TestOracleRejectsWrongOutputs(t *testing.T) {
	st, err := store.Open(0, "")
	if err != nil {
		t.Fatal(err)
	}
	mgr := service.New(service.Config{Store: st})
	defer mgr.Shutdown(context.Background())
	srv := httptest.NewServer(service.NewAPI(mgr, st).Handler())
	defer srv.Close()
	b := compileBody{Model: "hubbard:2x2", Method: "hatt", Strings: true, Device: qualityDevice}
	body, _ := json.Marshal(b)
	r, _, err := post(context.Background(), srv.Client(), srv.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(&b, &r); err != nil {
		t.Fatalf("a correct response fails the oracle: %v", err)
	}
	bad := r
	bad.PauliWeight++
	if verify(&b, &bad) == nil {
		t.Error("the oracle accepts a wrong pauli_weight")
	}
	bad = r
	bad.Mapping = append([]string(nil), r.Mapping...)
	bad.Mapping[1] = bad.Mapping[0]
	if verify(&b, &bad) == nil {
		t.Error("the oracle accepts a mapping with a repeated string")
	}
	routed := *r.Routed
	bad = r
	bad.Routed = &routed
	bad.Routed.CNOTs++
	if verify(&b, &bad) == nil {
		t.Error("the oracle accepts a wrong routed CNOT count")
	}
}
