package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// compileResp is the part of the /v1/compile response the benchmark reads.
type compileResp struct {
	Model       string   `json:"model"`
	Method      string   `json:"method"`
	Modes       int      `json:"modes"`
	PauliWeight int      `json:"pauli_weight"`
	Cached      bool     `json:"cached"`
	Mapping     []string `json:"mapping"`
	Routed      *struct {
		CNOTs int    `json:"cnots"`
		QASM  string `json:"qasm"`
	} `json:"routed"`
}

// post sends one compile request and decodes a 200 response. It returns
// the response size in bytes alongside; any other status is an error.
func post(ctx context.Context, client *http.Client, url string, body []byte) (compileResp, int, error) {
	var out compileResp
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, len(raw), fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, len(raw), fmt.Errorf("bad response: %w", err)
	}
	return out, len(raw), nil
}

// comboKey names the (model, method, device) combination of a named-model
// request, the unit a hit workload's expected weights are recorded in.
func comboKey(b *compileBody) string { return b.Model + "|" + b.Method + "|" + b.Device }

// expectation is what every window response of a workload must satisfy
// beyond status 200.
type expectation struct {
	cached  bool
	weights map[string]int // hit workloads: combo → weight seen in warm-up
}

func (e *expectation) check(b *compileBody, r *compileResp) error {
	if r.Cached != e.cached {
		return fmt.Errorf("%s/%s: cached=%v, want %v", r.Model, r.Method, r.Cached, e.cached)
	}
	if r.PauliWeight <= 0 {
		return fmt.Errorf("%s/%s: pauli_weight %d", r.Model, r.Method, r.PauliWeight)
	}
	if e.weights != nil {
		if w, ok := e.weights[comboKey(b)]; !ok || w != r.PauliWeight {
			return fmt.Errorf("%s: pauli_weight %d, warm-up saw %d", comboKey(b), r.PauliWeight, w)
		}
	}
	if b.Device != "" && (r.Routed == nil || r.Routed.CNOTs <= 0) {
		return fmt.Errorf("%s: no routed block", comboKey(b))
	}
	return nil
}

// warmUp sends the workload's warm-up requests and returns what the
// window's responses must then satisfy. Each combo of a hit workload is
// sent twice and must report the same weight both times.
func warmUp(ctx context.Context, client *http.Client, url string, w *workload, seed uint64) (*expectation, error) {
	exp := &expectation{cached: w.hit}
	if w.hit {
		exp.weights = make(map[string]int)
	}
	for _, b := range w.warmup(seed) {
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		r, _, err := post(ctx, client, url, body)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", comboKey(&b), err)
		}
		if exp.weights == nil {
			continue
		}
		if prev, ok := exp.weights[comboKey(&b)]; ok && prev != r.PauliWeight {
			return nil, fmt.Errorf("warm-up %s: pauli_weight %d, then %d", comboKey(&b), prev, r.PauliWeight)
		}
		exp.weights[comboKey(&b)] = r.PauliWeight
	}
	return exp, nil
}

// reading is what the window samples at each period boundary: the
// host's CPU jiffies (see hostCPU) and the daemon's CPU seconds.
type reading struct {
	busy, steal uint64
	cpu         float64
}

// hostMeter reads hostCPU alongside the daemon CPU time that cpu reports.
func hostMeter(cpu func() (float64, error)) func() (reading, error) {
	return func() (reading, error) {
		busy, steal, err := hostCPU()
		if err != nil {
			return reading{}, err
		}
		c, err := cpu()
		return reading{busy, steal, c}, err
	}
}

// windowResult is the client-side record of one closed-loop window.
type windowResult struct {
	periods   []period // the window in order, about periodLen each
	attempted int
	failed    int
	firstErr  error
	reqBytes  int64 // summed over attempted requests
	respBytes int64
}

// driveWindow runs a closed loop of `clients` keep-alive clients against
// url for duration d: each client sends request i of the stream (i taken
// from a shared counter), waits for the reply, checks it against exp, and
// sends the next. Requests already in flight at the deadline complete and
// count; none start after it. The window is cut into periods of about
// periodLen, at whose boundaries meter is read, and every request that
// passes its checks is filed under the period it completed in.
func driveWindow(ctx context.Context, client *http.Client, url string, w *workload, seed uint64, exp *expectation, clients int, d time.Duration, meter func() (reading, error)) (*windowResult, error) {
	type done struct {
		at time.Duration // completion, since the window started
		ms float64
	}
	type tally struct {
		done                []done
		attempted, failed   int
		firstErr            error
		reqBytes, respBytes int64
	}
	type mark struct {
		at time.Duration
		r  reading
	}
	var (
		next    atomic.Uint64
		wg      sync.WaitGroup
		tallies = make([]tally, clients)
	)
	first, err := meter()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(d)
	marks := []mark{{0, first}}
	stop := make(chan struct{})
	metered := make(chan error, 1)
	go func() {
		tick := time.NewTicker(periodLen)
		defer tick.Stop()
		// The last boundary before the deadline is at least half a period
		// before it, so the final period, which runs until the last
		// in-flight request completes, is never a sliver.
		for k := 1; k < int((d+periodLen/2)/periodLen); k++ {
			select {
			case <-stop:
				metered <- nil
				return
			case <-tick.C:
			}
			r, err := meter()
			if err != nil {
				metered <- err
				return
			}
			marks = append(marks, mark{time.Since(start), r})
		}
		metered <- nil
	}()
	for c := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := next.Add(1) - 1
				b := w.request(seed, i)
				body, err := json.Marshal(b)
				if err != nil {
					panic(err) // compileBody always marshals
				}
				t0 := time.Now()
				r, n, err := post(ctx, client, url, body)
				t1 := time.Now()
				lat := float64(t1.Sub(t0).Nanoseconds()) / 1e6
				t.attempted++
				t.reqBytes += int64(len(body))
				t.respBytes += int64(n)
				if err == nil {
					err = exp.check(&b, &r)
				}
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = fmt.Errorf("request %d: %w", i, err)
					}
					continue
				}
				t.done = append(t.done, done{t1.Sub(start), lat})
			}
		}(&tallies[c])
	}
	wg.Wait()
	close(stop)
	if err := <-metered; err != nil {
		return nil, err
	}
	last, err := meter()
	if err != nil {
		return nil, err
	}
	marks = append(marks, mark{time.Since(start), last})

	res := &windowResult{periods: make([]period, len(marks)-1)}
	for k := range res.periods {
		a, b := marks[k], marks[k+1]
		res.periods[k] = period{dur: b.at - a.at, busy: b.r.busy - a.r.busy, steal: b.r.steal - a.r.steal, cpu: b.r.cpu - a.r.cpu}
	}
	for _, t := range tallies {
		for _, c := range t.done {
			// The last mark was taken after every completion.
			k := sort.Search(len(marks), func(j int) bool { return marks[j].at > c.at }) - 1
			k = min(k, len(res.periods)-1)
			res.periods[k].latencies = append(res.periods[k].latencies, c.ms)
		}
		res.attempted += t.attempted
		res.failed += t.failed
		res.reqBytes += t.reqBytes
		res.respBytes += t.respBytes
		if res.firstErr == nil {
			res.firstErr = t.firstErr
		}
	}
	return res, nil
}
