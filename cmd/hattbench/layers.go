package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
	"repro/pkg/compiler"
)

// layerSpans are the spans the traced pass records around each layer
// call, in report order. service.self is derived, not recorded: the
// handler's time for a request minus the time its layer spans cover.
var layerSpans = []string{
	"models.resolve",
	"fermion.read_json",
	"fermion.majorana",
	"fermion.fingerprint",
	"compiler.digest",
	"store.get",
	"store.put",
	// jw and bk are only requested by hit-small, whose replayed requests
	// are all store hits, so they never search and have no span here.
	"search.hatt",
	"search.anneal",
	"search.portfolio",
	"mapping.apply",
	"circuit.synthesize",
	"arch.route",
	"service.self",
}

// rootSpan is the span around one whole replayed request.
const rootSpan = "request"

// spanRec is one recorded span; times are nanoseconds since the pass
// started. Parent is -1 for a request's root span.
type spanRec struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a pass's spans in memory. A nil recorder records
// nothing, which is what the untraced pass runs with.
type recorder struct {
	base  time.Time
	req   int
	spans []spanRec
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, spanRec{Req: r.req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.base))})
	return id
}

func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id].End = int64(time.Since(r.base))
	}
}

// replica replays requests by calling each layer's public functions in
// the order hattd's sync compile path reaches them, against its own store.
type replica struct {
	st  *store.Store
	rec *recorder
}

// openReplica starts from the state a fresh daemon starts from: an empty
// store with its disk tier at dir.
func openReplica(dir string) (*replica, error) {
	st, err := store.Open(store.DefaultCapacity, dir)
	if err != nil {
		return nil, err
	}
	return &replica{st: st}, nil
}

// serve replays one request body.
func (p *replica) serve(ctx context.Context, body []byte) error {
	rec := p.rec
	root := rec.begin(rootSpan, -1)
	defer rec.end(root)

	var b compileBody
	if err := json.Unmarshal(body, &b); err != nil {
		return err
	}
	var (
		h   *fermion.Hamiltonian
		err error
	)
	if len(b.Hamiltonian) > 0 {
		s := rec.begin("fermion.read_json", root)
		h, err = fermion.ReadJSON(bytes.NewReader(b.Hamiltonian))
		rec.end(s)
	} else {
		s := rec.begin("models.resolve", root)
		h, err = models.Resolve(b.Model)
		rec.end(s)
	}
	if err != nil {
		return err
	}
	s := rec.begin("fermion.majorana", root)
	mh := h.Majorana(1e-12)
	rec.end(s)
	s = rec.begin("fermion.fingerprint", root)
	fp := mh.Fingerprint()
	rec.end(s)

	// The key folds in the device; the search runs without it, as the
	// routing stage below is timed on its own.
	var search []compiler.Option
	if b.Options != nil {
		search = append(search, compiler.WithSeed(b.Options.Seed))
	}
	keyed := search
	if b.Device != "" {
		keyed = append(keyed[:len(keyed):len(keyed)], compiler.WithDevice(b.Device))
	}
	s = rec.begin("compiler.digest", root)
	key := store.Key{Hamiltonian: fp, Spec: b.Method, Options: compiler.NewOptions(keyed...).Digest()}
	rec.end(s)

	s = rec.begin("store.get", root)
	e, hit := p.st.Get(key)
	rec.end(s)
	if !hit {
		s = rec.begin("search."+b.Method, root)
		res, err := compiler.Compile(ctx, b.Method, mh, search...)
		rec.end(s)
		if err != nil {
			return err
		}
		e = &store.Entry{Method: res.Method, Mapping: res.Mapping, PredictedWeight: res.PredictedWeight, Optimal: res.Optimal, Visited: res.Visited}
		s = rec.begin("store.put", root)
		p.st.Put(key, e)
		rec.end(s)
	}
	if b.Device == "" {
		return nil
	}
	dev, err := arch.Lookup(b.Device)
	if err != nil {
		return err
	}
	s = rec.begin("mapping.apply", root)
	hq := e.Mapping.Apply(mh)
	rec.end(s)
	s = rec.begin("circuit.synthesize", root)
	logical := synthesize(hq)
	rec.end(s)
	s = rec.begin("arch.route", root)
	_, err = arch.Route(logical, dev)
	rec.end(s)
	return err
}

// passTimes holds the per-request times of the three replay passes, in
// nanoseconds, indexed like the replayed prefix, and pass T's spans.
type passTimes struct {
	untraced []int64 // pass U: one timer around each replayed request
	handler  []int64 // pass H: the service handler on the same body
	spans    []spanRec
}

// replayPasses replays the first n requests of the workload's stream
// in-process in three passes: U (layer calls, untraced), T (the same
// calls with spans recorded) and H (service.NewAPI(...).Handler().
// ServeHTTP on the same bodies). Each pass has its own fresh store under
// dir and gets the warm-up the daemon got. The passes are interleaved
// request by request, rotating which goes first, so drift in the
// machine's speed lands on all three alike.
//
// The core build memo is process-wide, so the three passes share it; the
// replay keeps it in the state hattd's would be in. hattd's memo keeps the
// schedule of every structure it has built (up to its LRU bound), so a
// request whose Majorana structure the memo holds runs all three passes
// with the memo as it is: on miss-search every request is such a memo hit,
// as in hattd. A request with a structure the memo does not hold has the
// memo emptied before each pass, so each pass builds it, as hattd does the
// first time it sees a structure; afterwards the memo holds that structure
// alone. Only a structure that repeats after such an emptying (under 5% of
// miss-inline) is rebuilt where hattd might still hold it.
func replayPasses(ctx context.Context, w *workload, seed uint64, n int, dir string) (*passTimes, error) {
	if _, err := obs.InitLogger(os.Stderr, "error", "json"); err != nil { // as hattd -log-level error
		return nil, err
	}
	u, err := openReplica(filepath.Join(dir, "pass-u"))
	if err != nil {
		return nil, err
	}
	t, err := openReplica(filepath.Join(dir, "pass-t"))
	if err != nil {
		return nil, err
	}
	h, err := openHandler(filepath.Join(dir, "pass-h"))
	if err != nil {
		return nil, err
	}
	defer h.close(ctx)

	held := make(map[[32]byte]bool) // structures whose schedule the memo holds
	core.ResetBuildCache()
	for _, b := range w.warmup(seed) {
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		if err := errors.Join(u.serve(ctx, body), t.serve(ctx, body)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if _, err := h.serve(body); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		key, err := structureOf(&b)
		if err != nil {
			return nil, err
		}
		held[key] = true
	}

	pt := &passTimes{untraced: make([]int64, n), handler: make([]int64, n)}
	t.rec = &recorder{base: time.Now(), spans: make([]spanRec, 0, 12*n)}
	for i := 0; i < n; i++ {
		b := w.request(seed, uint64(i))
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		key, err := structureOf(&b)
		if err != nil {
			return nil, err
		}
		fresh := !held[key]
		if fresh {
			clear(held)
			held[key] = true
		}
		t.rec.req = i
		for k := 0; k < 3; k++ {
			if fresh {
				core.ResetBuildCache()
			}
			switch (i + k) % 3 {
			case 0:
				t0 := time.Now()
				err = u.serve(ctx, body)
				pt.untraced[i] = int64(time.Since(t0))
			case 1:
				err = t.serve(ctx, body)
			case 2:
				pt.handler[i], err = h.serve(body)
			}
			if err != nil {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
		}
	}
	pt.spans = t.rec.spans
	return pt, nil
}

// handlerReplica serves request bodies through a service API wired the
// way hattd wires it with default flags and a disk tier.
type handlerReplica struct {
	mgr *service.Manager
	h   http.Handler
}

func openHandler(dir string) (*handlerReplica, error) {
	st, err := store.Open(store.DefaultCapacity, dir)
	if err != nil {
		return nil, err
	}
	ledger, err := store.OpenLedger(filepath.Join(dir, "portfolio_ledger.json"), store.DefaultLedgerEpsilon)
	if err != nil {
		return nil, err
	}
	mgr := service.New(service.Config{Store: st, Ledger: ledger})
	api := service.NewAPI(mgr, st, service.WithLedger(ledger),
		service.WithObservability(obs.NewRegistry(), obs.NewTracer(obs.DefaultTraceCapacity)))
	return &handlerReplica{mgr: mgr, h: api.Handler()}, nil
}

// serve runs one body through the handler and returns the handler's time.
func (p *handlerReplica) serve(body []byte) (int64, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body))
	rw := httptest.NewRecorder()
	t0 := time.Now()
	p.h.ServeHTTP(rw, req)
	d := int64(time.Since(t0))
	if rw.Code != http.StatusOK {
		return d, fmt.Errorf("status %d: %.200s", rw.Code, rw.Body.Bytes())
	}
	return d, nil
}

func (p *handlerReplica) close(ctx context.Context) {
	_ = p.mgr.Shutdown(ctx) // no jobs were submitted, so there is nothing to drain
}

// layerMetrics turns the three passes into the per-layer metrics: for
// each span in layerSpans its call count, median self time and share of
// request time, plus trace.overhead_pct. Request time is the handler
// time of pass H, so the shares of all spans sum to 1.
func layerMetrics(pt *passTimes) map[string]float64 {
	children := make(map[int][]interval) // span ID → its children
	for _, s := range pt.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	selfs := make(map[string][]float64) // span name → self times, µs
	selfSum := make(map[string]float64) // span name → summed self time, ns
	var total float64                   // summed handler time, ns
	var traced, untraced int64
	for _, s := range pt.spans {
		iv := interval{s.Start, s.End}
		self := selfTime(iv, children[s.ID])
		name := s.Name
		if s.Parent < 0 {
			// The service's own time: the handler's time for this request
			// minus what the layer spans cover.
			traced += iv.end - iv.start
			self = pt.handler[s.Req] - (iv.end - iv.start - self)
			name = "service.self"
		}
		selfs[name] = append(selfs[name], float64(self)/1e3)
		selfSum[name] += float64(self)
	}
	for i := range pt.handler {
		total += float64(pt.handler[i])
		untraced += pt.untraced[i]
	}
	out := make(map[string]float64, 3*len(layerSpans)+1)
	for _, name := range layerSpans {
		out[name+".calls"] = float64(len(selfs[name]))
		out[name+".self_us_p50"] = median(selfs[name]) // 0 when never called
		out[name+".share"] = selfSum[name] / total
	}
	out["trace.overhead_pct"] = 100 * float64(traced-untraced) / float64(untraced)
	return out
}

// writeTrace writes the traced pass's spans to path as JSON.
func writeTrace(path, workload string, seed uint64, spans []spanRec) error {
	raw, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Seed     uint64    `json:"seed"`
		Spans    []spanRec `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
