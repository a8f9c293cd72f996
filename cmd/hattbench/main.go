// Command hattbench measures hattd's request path end to end and layer
// by layer: a Hamiltonian goes in over HTTP and a HATT mapping comes back,
// possibly routed to a device. Run it from the repository root with
//
//	bash cmd/hattbench/run.sh --workload hit-small --seed 1 --seconds 25 --trace 0
//
// run.sh builds ./cmd/hattd and this command from the tree under test
// into .bench_build/ (build time is not measured), then runs it. One run
// measures one workload:
//
//  1. Set-up, timed as setup_s: spawn a fresh hattd (-addr 127.0.0.1:0,
//     -store-dir under .bench_build, -log-level error, every other flag
//     at its default, GOMAXPROCS = nproc), wait for GET /v1/readyz to
//     answer 200, and send the workload's warm-up requests. This is done
//     seven times, each with a fresh daemon and store; setup_s is the
//     median of the set-ups kept by the rule the window's periods follow
//     (step 2), and the last daemon serves the window.
//  2. Window: a closed loop of nproc keep-alive clients, one per hattd
//     P, for --seconds. Closed because hattd's callers (hattc,
//     compile pipelines, sweep scripts) wait for each mapping before
//     sending the next. Every response is checked: status 200, the cached
//     flag the workload implies, and on hit workloads the pauli_weight
//     the warm-up saw for the same combination. The window is cut into
//     one-second periods. At each boundary the benchmark reads the
//     daemon's CPU time and the steal column of /proc/stat, the CPU time
//     the hypervisor gave to other machines while this one had work. The
//     timings are taken over the periods in which at most 2% of the CPU
//     time was stolen, and never over fewer than the least-stolen fifth
//     of the periods (see keptPeriods).
//  3. Output oracle: the stream's first 32 requests (the verification
//     set) and 32 requests of the quality probe (the workload's stream at
//     a fixed seed, routed onto grid:6x6) are sent again with
//     include_strings. Each mapping is parsed with pauli.Parse and must
//     pass mapping.Verify and VerifyIndependent; mapping.Apply(mh).Weight()
//     must equal the reported pauli_weight; a routed response's QASM must
//     parse with circuit.ReadQASM, pass arch.CheckCoupling, and have the
//     CNOT count that both the response and an in-process re-route give.
//  4. Workload-property guards: the store hit ratio over the window must
//     be ≥ 0.99 on hit-* and ≤ 0.01 on miss-*, and miss-inline's
//     input.unique_structure_share must be ≥ 0.95, so a keying change that
//     quietly turns misses into hits fails the run instead of reading as
//     a speed-up.
//  5. With --trace 1, the per-layer replay described below.
//
// The request stream is a pure function of (seed, index). On the
// named-model workloads every run of models × methods consecutive
// requests holds each combination once, in an order drawn from the seed,
// so every window serves the same mix. The output is
// "# env" lines (nproc, hattd GOMAXPROCS, client count, Go version, git
// revision in a git checkout, CPU model, store directory), a "# window"
// line (periods, periods kept, stolen share over all and over the kept
// periods, and throughput and p50 over all periods), one
// "workload metric value unit [n=samples]" line per metric, "# FAIL"
// lines for any failure, and last one JSON object {"correct",
// "attempted", "failed", "metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). A failed request, a
// wrong output or a failed guard makes correct false and the exit code 1.
// The client count is nproc, never more. Everything written stays under
// .bench_build/.
//
// # Workloads
//
//   - hit-small: all hits on {h2, hubbard:2x2, hubbard:3x3} × {jw, bk,
//     hatt}, no strings. The common repeated-request path: decode, model
//     rebuild, keying, lookup and encode are the whole cost; search and
//     routing do nothing.
//   - hit-routed: all hits on {h2, hubbard:2x3, hubbard:3x3, hubbard:4x4}
//     × {hatt, jw} with device grid:6x6. A routed hit re-runs synthesis and
//     routing on every request, so circuit and arch dominate while search
//     stays idle. The jw/hatt pairs carry the paper's gate-count
//     comparison.
//   - miss-inline: every request is an unseen inline hamiltonian through
//     hatt with include_strings: a diluted Fermi–Hubbard lattice, 3×4 or
//     4×4, each bond kept with p = 0.75, per-request t and U, about 7 KB
//     of JSON. The paper's own path, with the store and the build memo
//     bypassed, disk-tier writes and large response encodes.
//   - miss-search: {hubbard:2x3, hubbard:3x3, neutrino:3x2} × {anneal,
//     portfolio}, each request with a unique options.seed. Both methods
//     read the seed, so these stay genuine misses however tightly the
//     store key is drawn. Search dominates: anneal chains and the
//     portfolio race on the internal/parallel pool.
//
// # End-to-end metrics (--trace 0)
//
//	throughput_rps         req/s   higher  verified 200 responses ÷ time, kept periods
//	latency_p50_ms         ms      lower   client-side, nearest rank, kept periods
//	latency_p99_ms         ms      lower   client-side, nearest rank, kept periods
//	server_cpu_ms_per_req  ms      lower   hattd utime+stime ÷ verified responses, kept periods
//	server_peak_rss_mb     MB      lower   hattd VmHWM at the end of the window
//	setup_s                s       lower   spawn → readyz 200 → warm-up done, median of kept set-ups
//	pauli_weight_sum       weight  lower   quality probe: summed pauli_weight
//	routed_cnots_sum       gates   lower   quality probe: summed routed CNOTs
//
// The two sums depend only on the code, not on --seed: they guard against
// trading mapping quality for speed. Failures are not a metric of their
// own, because a metric must never read 0: they are the result's "failed"
// count against "attempted", and any of them fails the run. The timings
// carry the sample count they rest on; a window needs 1,000 samples for
// ten to lie beyond p99.
//
// # Per-layer metrics (--trace 1)
//
// After the window and the oracle the daemon is stopped, and the first
// workload.prefix requests of the same stream are replayed in-process,
// sequentially, by three passes:
//
//   - U calls each layer's public function in the order hattd's sync
//     compile path reaches it, with one timer per request.
//   - T makes the same calls and records a span (request, id, parent,
//     name, start, end) around each, in memory; they are written to
//     .bench_build/out/trace-<workload>.json at exit.
//   - H times service.NewAPI(...).Handler().ServeHTTP on the same body.
//
// Each pass starts from the daemon's window-start state, a fresh
// store.Open(store.DefaultCapacity, dir) given the same warm-up. The
// passes take turns request by request, so a change in the machine's
// speed lands on all three alike. The core build memo is process-wide,
// so the passes share it, and the replay keeps it as hattd's would be:
// a request whose Majorana structure the memo already holds (every
// miss-search request) runs against it as it is, and one with a new
// structure (nearly every miss-inline request) has core.ResetBuildCache()
// run before each pass, so each pass builds the schedule as hattd does
// the first time.
//
// The spans are models.resolve (models.Resolve), fermion.read_json
// (fermion.ReadJSON), fermion.majorana, fermion.fingerprint,
// compiler.digest (compiler.NewOptions(...).Digest()), store.get,
// store.put, search.<method> for hatt, anneal and portfolio
// (compiler.Compile with no store and no device; jw and bk appear only
// on hit-small, whose replayed requests never search), mapping.apply,
// circuit.synthesize (SynthesizeTrotter + Optimize) and arch.route.
// service.self is pass H's time for a request minus the time its layer
// spans cover in pass T. For each span the run reports <span>.calls,
// <span>.self_us_p50 (µs; a span's self time is its length minus the
// union of its children) and <span>.share (self time ÷ pass-H time, so
// the shares sum to 1). It also reports store.hit_ratio, store.puts,
// store.disk_writes and service.shed_429 from /v1/stats deltas over the
// window; input.unique_structure_share, the share of the stream's first
// requests (up to 500) whose Majorana index structure is new, which is
// what the build memo depends on; wire.request_kb and wire.response_kb,
// mean body sizes over the window; and trace.overhead_pct, 100·(T − U) ÷ U.
//
// # Which layer should move which end-to-end metric
//
//	fermion.majorana, models.resolve, fermion.fingerprint, compiler.digest,
//	store.get, service.self
//	    throughput_rps, latency_p50_ms and server_cpu_ms_per_req: strongly
//	    on hit-small; also on hit-routed and miss-inline (majorana);
//	    predicted flat on miss-search.
//	circuit.synthesize, arch.route
//	    the latencies and server_cpu_ms_per_req on hit-routed; absent
//	    elsewhere, so the prediction there is no change.
//	search.*
//	    miss-search and part of miss-inline; nothing on hit-*.
//	store.put
//	    miss-inline and miss-search.
//	fermion.read_json, wire.*
//	    miss-inline only.
//
// # Comparing two commits
//
// Check out both commits and run each workload with the same seed on
// both, in at least ten pairs, alternating which commit runs first: a
// machine shared with other work drifts in speed over minutes, and
// pairing cancels the drift. Compare each side's median and quartiles per
// workload and metric against the bounds in BENCHMARK.json, then confirm
// on a fresh seed not used while the change was written.
//
// The timing bounds are 0.25 because unpaired runs do not repeat more
// tightly than that on a shared machine. On a 2-vCPU Xeon VM the
// hypervisor stole from under 1% to over half of the CPU time, in
// stretches lasting minutes; a run inside such a stretch has no clean
// periods to keep and is slow throughout. Two sets of ten seeds per
// workload, taken while under 1% was stolen in most runs, gave quartile
// spreads of 1–20% of the median for every timing, and the medians of the
// two sets differed by at most 11%. A set in which 10–60% was stolen gave
// spreads of up to 68% (126% for p99). The "# window" line tells whether
// a run was stolen from. A change smaller than a bound is resolved only
// by the paired comparison above.
//
// cmd/hattbench is a module of its own, with a go.mod that points the
// repro module at the enclosing tree, so the benchmark is one
// self-contained package with its own build file. Its tests run with
// "go test ./..." inside cmd/hattbench; the repository's own
// "go test ./..." does not reach them.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hattbench:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	workload *workload
	seed     uint64
	window   time.Duration
	trace    bool
}

const (
	// workDir holds bin/hattd, which run.sh builds; the daemons' store
	// directories and out/ go here too.
	workDir = ".bench_build"
	// setupRuns is how many fresh daemons each run sets up; setup_s is the
	// median of the kept set-up times, which one process spawn is too
	// noisy for.
	setupRuns = 7
)

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("hattbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: hit-small | hit-routed | miss-inline | miss-search")
	seed := fs.Uint64("seed", 1, "request-stream seed")
	seconds := fs.Float64("seconds", 20, "length of the measured window, seconds")
	trace := fs.Int("trace", 0, "1 = also replay the stream layer by layer and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return nil, err
	}
	switch {
	case *seconds <= 0:
		return nil, fmt.Errorf("-seconds %v: want > 0", *seconds)
	case *trace != 0 && *trace != 1:
		return nil, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	return &config{
		workload: w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}, nil
}

func run(args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	return bench(ctx, cfg, runDir, stdout)
}

// bench runs one workload end to end and prints its report.
func bench(ctx context.Context, cfg *config, runDir string, stdout io.Writer) error {
	w := cfg.workload
	nproc := runtime.NumCPU()
	clients := nproc // hattd's GOMAXPROCS, so the loop keeps every P busy without queueing
	fmt.Fprintf(stdout, "# env workload=%s seed=%d nproc=%d hattd_gomaxprocs=%d clients=%d window_s=%g\n",
		w.name, cfg.seed, nproc, nproc, clients, cfg.window.Seconds())
	fmt.Fprintf(stdout, "# env go=%s rev=%s store_dir=%s cpu=%q\n", runtime.Version(), gitRev(ctx), runDir, cpuModel())

	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout:   5 * time.Minute,
	}
	defer client.CloseIdleConnections()
	got := make(map[string]measurement)
	attempted, failed := 0, 0
	var problems []string

	d, exp, setups, err := setUp(ctx, cfg, runDir, client)
	if err != nil {
		return err
	}
	defer d.stop()
	attempted += setupRuns * len(w.warmup(cfg.seed))
	var setupTimes []float64
	for _, p := range keptPeriods(setups) {
		setupTimes = append(setupTimes, p.dur.Seconds())
	}
	got["setup_s"] = measurement{median(setupTimes), len(setupTimes)}

	before, err := fetchStats(ctx, client, d.url)
	if err != nil {
		return err
	}
	win, err := driveWindow(ctx, client, d.url, w, cfg.seed, exp, clients, cfg.window, hostMeter(d.cpuSeconds))
	if err != nil {
		return err
	}
	after, err := fetchStats(ctx, client, d.url)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	attempted += win.attempted
	failed += win.failed
	if win.firstErr != nil {
		problems = append(problems, fmt.Sprintf("window: %d failed, first: %v", win.failed, win.firstErr))
	}
	kept := keptPeriods(win.periods)
	all, timed := merge(win.periods), merge(kept)
	fmt.Fprintf(stdout, "# window periods=%d kept=%d stolen_all=%.4f stolen_kept=%.4f all_rps=%.6g all_p50_ms=%.6g\n",
		len(win.periods), len(kept), all.stolen(), timed.stolen(),
		float64(len(all.latencies))/all.dur.Seconds(), percentile(all.latencies, 50))
	ok := len(timed.latencies)
	got["throughput_rps"] = measurement{float64(ok) / timed.dur.Seconds(), ok}
	got["latency_p50_ms"] = measurement{percentile(timed.latencies, 50), ok}
	got["latency_p99_ms"] = measurement{percentile(timed.latencies, 99), ok}
	got["server_cpu_ms_per_req"] = measurement{1000 * timed.cpu / float64(max(ok, 1)), ok}
	got["server_peak_rss_mb"] = measurement{value: rss}

	// Output oracle and quality probe.
	oc := checkOutputs(ctx, client, d.url, w, cfg.seed)
	attempted += oc.sent
	failed += len(oc.failures)
	for _, f := range oc.failures {
		problems = append(problems, "oracle: "+f.Error())
	}
	got["pauli_weight_sum"] = measurement{float64(oc.weightSum), verifySetSize}
	got["routed_cnots_sum"] = measurement{float64(oc.cnotSum), verifySetSize}
	d.stop() // the replay below needs the CPUs to itself

	// Workload-property guards.
	hits, misses := after.Store.Hits-before.Store.Hits, after.Store.Misses-before.Store.Misses
	hitRatio := float64(hits) / float64(max(hits+misses, 1))
	structN := min(max(win.attempted, 1), 500)
	share, err := w.uniqueStructureShare(cfg.seed, structN)
	if err != nil {
		return err
	}
	switch {
	case w.hit && hitRatio < 0.99:
		problems = append(problems, fmt.Sprintf("guard: store.hit_ratio %.4f < 0.99 on a hit workload", hitRatio))
	case !w.hit && hitRatio > 0.01:
		problems = append(problems, fmt.Sprintf("guard: store.hit_ratio %.4f > 0.01 on a miss workload", hitRatio))
	}
	if w.inline && share < 0.95 {
		problems = append(problems, fmt.Sprintf("guard: input.unique_structure_share %.4f < 0.95", share))
	}
	got["store.hit_ratio"] = measurement{hitRatio, int(hits + misses)}
	got["store.puts"] = measurement{value: float64(after.Store.Puts - before.Store.Puts)}
	got["store.disk_writes"] = measurement{value: float64(after.Store.DiskWrites - before.Store.DiskWrites)}
	got["service.shed_429"] = measurement{value: float64(after.Overload.ShedSync - before.Overload.ShedSync)}
	got["input.unique_structure_share"] = measurement{share, structN}
	got["wire.request_kb"] = measurement{float64(win.reqBytes) / float64(max(win.attempted, 1)) / 1024, win.attempted}
	got["wire.response_kb"] = measurement{float64(win.respBytes) / float64(max(win.attempted, 1)) / 1024, win.attempted}

	defs := endToEnd
	if cfg.trace {
		pt, err := replayPasses(ctx, w, cfg.seed, w.prefix, filepath.Join(runDir, "replay"))
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		for name, v := range layerMetrics(pt) {
			got[name] = measurement{v, w.prefix}
		}
		if err := writeTrace(filepath.Join(workDir, "out", "trace-"+w.name+".json"), w.name, cfg.seed, pt.spans); err != nil {
			return err
		}
		defs = perLayer()
	}

	printMetrics(stdout, w.name, endToEnd, got)
	printMetrics(stdout, w.name, perLayer(), got)
	for _, p := range problems {
		fmt.Fprintln(stdout, "# FAIL", p)
	}
	correct := failed == 0 && len(problems) == 0
	line, err := resultLine(correct, attempted, failed, defs, got)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		return errors.New("wrong output or failed guard (see # FAIL lines)")
	}
	return nil
}

// setUp starts setupRuns fresh daemons one after another, each with its
// own store directory, and warms each up. It returns the last daemon,
// still running, with what its window responses must satisfy, and one
// period per set-up: its length and the host CPU time it spanned.
func setUp(ctx context.Context, cfg *config, runDir string, client *http.Client) (*daemon, *expectation, []period, error) {
	var setups []period
	for k := 0; ; k++ {
		busy0, steal0, err := hostCPU()
		if err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		d, err := startDaemon(filepath.Join(workDir, "bin", "hattd"), filepath.Join(runDir, fmt.Sprintf("store-%d", k)), runtime.NumCPU())
		if err != nil {
			return nil, nil, nil, err
		}
		exp, err := warmUp(ctx, client, d.url, cfg.workload, cfg.seed)
		if err != nil {
			d.stop()
			return nil, nil, nil, err
		}
		dur := time.Since(t0)
		busy1, steal1, err := hostCPU()
		if err != nil {
			d.stop()
			return nil, nil, nil, err
		}
		setups = append(setups, period{dur: dur, busy: busy1 - busy0, steal: steal1 - steal0})
		if k == setupRuns-1 {
			return d, exp, setups, nil
		}
		d.stop()
		client.CloseIdleConnections()
	}
}

// gitRev is the checkout's HEAD commit, or "unknown" outside a git
// checkout.
func gitRev(ctx context.Context) string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
