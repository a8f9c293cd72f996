// Command hattc is the HATT compiler CLI: it builds a benchmark fermionic
// Hamiltonian, compiles a fermion-to-qubit mapping with the selected
// method, and reports the Majorana strings, Pauli weight, and simulation
// circuit metrics. It is a thin shell over pkg/compiler — every method it
// accepts is whatever the compiler registry exposes.
//
// Usage examples:
//
//	hattc -model h2 -mapping hatt -strings
//	hattc -model hubbard:3x3 -mapping jw
//	hattc -model neutrino:4x2 -mapping btt
//	hattc -model molecule:12 -mapping hatt -compare
//	hattc -model hubbard:2x2 -mapping fh:2000000
//	hattc -model hubbard:3x3 -mapping anneal -timeout 5s -progress
//	hattc -m h2 -method hatt -device montreal
//	hattc -m h2 -device-file ring6.json -qasm routed.qasm
//	hattc -model molecule:14 -method portfolio:hatt+beam:8+anneal
//	hattc -watch job-000001 -daemon http://127.0.0.1:7707
//
// -m and -method are short aliases for -model and -mapping. A -device
// (catalog spec) or -device-file (custom JSON edge list) additionally
// routes the synthesized circuit onto that coupling graph and reports
// the routed metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/fermion"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/store"
	"repro/internal/version"
	"repro/pkg/compiler"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hattc:", err)
		os.Exit(1)
	}
}

func run() error {
	model := flag.String("model", "h2", "model spec: "+models.SpecHelp)
	flag.StringVar(model, "m", "h2", "short for -model")
	input := flag.String("input", "", "read the fermionic Hamiltonian from a JSON file instead of -model")
	method := flag.String("mapping", "hatt", "mapping method spec: "+strings.Join(compiler.Methods(), " | ")+" (beam:<width ≤ 4096>, fh:<visit budget>, fh:0 = unlimited)")
	flag.StringVar(method, "method", "hatt", "short for -mapping")
	device := flag.String("device", "", "route onto this catalog device: manhattan | sycamore | montreal | linear:<n> | grid:<r>x<c>")
	deviceFile := flag.String("device-file", "", "route onto a custom device loaded from this JSON edge-list file")
	showStrings := flag.Bool("strings", false, "print the Majorana Pauli strings")
	compare := flag.Bool("compare", false, "compare all mappings on this model")
	trotter := flag.Int("trotter", 1, "Trotter steps for the compiled circuit")
	order := flag.String("order", "lex", "Trotter term order: natural | lex | greedy")
	qasmOut := flag.String("qasm", "", "write the compiled circuit as OpenQASM 2.0 to this file ('-' for stdout); with a device set this is the routed circuit")
	doTaper := flag.Bool("taper", false, "additionally report the Z2-tapered Hamiltonian (small systems only)")
	timeout := flag.Duration("timeout", 0, "abort compilation after this long (0 = no limit)")
	progress := flag.Bool("progress", false, "print search progress to stderr")
	list := flag.Bool("list", false, "list the registered mapping methods and the device catalog and exit")
	watch := flag.String("watch", "", "watch a daemon job: poll its status and print best-so-far weight/method lines as they improve")
	daemon := flag.String("daemon", "http://127.0.0.1:7707", "base URL of the hattd daemon -watch polls")
	storeDir := flag.String("store-dir", "", "reuse compiled mappings from this content-addressed store directory (shared with hattd -store-dir)")
	storeCap := flag.Int("store-cap", store.DefaultCapacity, "in-memory entries for -store-dir's LRU tier")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	logLevel := flag.String("log-level", "warn", "structured log level: debug | info | warn | error")
	logFormat := flag.String("log-format", "text", "structured log format: json | text")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String("hattc"))
		return nil
	}
	// A CLI defaults to quiet, human-readable logs on stderr; -log-level
	// debug surfaces store/fault events during local debugging.
	if _, err := obs.InitLogger(os.Stderr, *logLevel, *logFormat); err != nil {
		return err
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProf()

	if *list {
		fmt.Println("methods:")
		for _, mi := range compiler.MethodTable() {
			spec := mi.Spec
			if mi.Param != "" {
				spec += ", " + mi.Param
			}
			fmt.Printf("  %-22s %s\n", spec, mi.Description)
		}
		fmt.Println("devices (-device):")
		for _, in := range arch.Catalog() {
			if in.Qubits > 0 {
				fmt.Printf("  %-14s %s (%d qubits, %d couplers)\n", in.Spec, in.Description, in.Qubits, in.Couplers)
			} else {
				fmt.Printf("  %-14s %s\n", in.Spec, in.Description)
			}
		}
		return nil
	}

	if *watch != "" {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		return watchJob(ctx, *daemon, *watch)
	}

	var opts []compiler.Option
	if *storeDir != "" {
		st, err := store.Open(*storeCap, *storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		opts = append(opts, compiler.WithStore(st))
	}
	switch {
	case *device != "" && *deviceFile != "":
		return fmt.Errorf("-device and -device-file are mutually exclusive")
	case *device != "":
		// Validate eagerly for a prompt CLI error; the spec itself is what
		// flows into the options (and the store content address).
		if err := arch.CheckSpec(*device); err != nil {
			return err
		}
		opts = append(opts, compiler.WithDevice(*device))
	case *deviceFile != "":
		d, err := arch.LoadDeviceFile(*deviceFile)
		if err != nil {
			return err
		}
		opts = append(opts, compiler.WithDeviceSpec(d))
	}

	ord, err := parseOrderOption(*order)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts = append(opts,
		compiler.WithTrotterSteps(*trotter),
		ord,
	)
	if *progress {
		opts = append(opts, compiler.WithProgress(func(ev compiler.ProgressEvent) {
			if ev.Stage == compiler.StageSearch {
				fmt.Fprintf(os.Stderr, "hattc: %s %d/%d best=%d\n", ev.Method, ev.Step, ev.Total, ev.BestWeight)
			}
		}))
	}

	pipe := compiler.Pipeline{Model: *model, Taper: *doTaper, Options: opts}
	if *input != "" {
		h, err := readInput(*input)
		if err != nil {
			return err
		}
		pipe.Model = *input
		pipe.Hamiltonian = h
	}

	if *compare {
		for i, spec := range []string{"jw", "bk", "parity", "btt", "hatt-unopt", "hatt"} {
			p := pipe
			p.Method = spec
			p.Taper = false
			rep, err := p.Run(ctx)
			if err != nil {
				return err
			}
			if i == 0 {
				fmt.Printf("model %s: %d modes, %d second-quantized terms, %d Majorana monomials\n",
					rep.Model, rep.Modes, rep.FermionTerms, rep.MajoranaTerms)
			}
			if err := report(ctx, rep, false, ""); err != nil {
				return err
			}
		}
		return nil
	}

	pipe.Method = *method
	rep, err := pipe.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("model %s: %d modes, %d second-quantized terms, %d Majorana monomials\n",
		rep.Model, rep.Modes, rep.FermionTerms, rep.MajoranaTerms)
	if rep.Result.Method == "fh" && !rep.Result.Optimal {
		fmt.Println("note: FH search hit its visit budget; result is approximate (*)")
	}
	return report(ctx, rep, *showStrings, *qasmOut)
}

// watchStatus is the slice of the job-status payload -watch reads: the
// lifecycle fields plus the anytime partial block.
type watchStatus struct {
	State   string `json:"state"`
	Error   string `json:"error"`
	Partial *struct {
		Method      string `json:"method"`
		PauliWeight int    `json:"pauli_weight"`
	} `json:"partial"`
	Result *struct {
		Method      string `json:"method"`
		PauliWeight int    `json:"pauli_weight"`
		Qubits      int    `json:"qubits"`
	} `json:"result"`
}

// watchJob polls one daemon job with include_partial until it reaches a
// terminal state, printing a line each time the validated best-so-far
// improves. The weights it prints can only go down — the daemon's
// partial is monotone — so the output reads as the anytime trajectory
// of the search.
func watchJob(ctx context.Context, base, id string) error {
	url := strings.TrimRight(base, "/") + "/v1/jobs/" + id + "?include_partial=true"
	best := 0
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		st, err := fetchStatus(ctx, url)
		if err != nil {
			return err
		}
		if p := st.Partial; p != nil && (best == 0 || p.PauliWeight < best) {
			best = p.PauliWeight
			fmt.Printf("hattc: job %s best=%d method=%s\n", id, p.PauliWeight, p.Method)
		}
		switch st.State {
		case "done":
			if st.Result == nil {
				return fmt.Errorf("job %s done without a result", id)
			}
			fmt.Printf("hattc: job %s done weight=%d qubits=%d method=%s\n",
				id, st.Result.PauliWeight, st.Result.Qubits, st.Result.Method)
			return nil
		case "failed":
			return fmt.Errorf("job %s failed: %s", id, st.Error)
		case "canceled":
			fmt.Printf("hattc: job %s canceled\n", id)
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func fetchStatus(ctx context.Context, url string) (*watchStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("daemon answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var st watchStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func readInput(path string) (*fermion.Hamiltonian, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fermion.ReadJSON(f)
}

func parseOrderOption(spec string) (compiler.Option, error) {
	ord, err := compiler.ParseTermOrder(spec)
	if err != nil {
		return nil, err
	}
	return compiler.WithTermOrder(ord), nil
}

func report(ctx context.Context, rep *compiler.Report, showStrings bool, qasmOut string) error {
	m := rep.Result.Mapping
	fmt.Printf("%-11s qubits=%d  pauli-weight=%-8d terms=%-7d cnot=%-8d u3=%-8d depth=%-8d vacuum=%v\n",
		m.Name, m.Qubits(), rep.Weight, rep.Terms,
		rep.CNOTs, rep.Singles, rep.Depth, rep.VacuumPreserved)
	if showStrings {
		for j, s := range m.Majoranas {
			fmt.Printf("  M%-3d = %s\n", j, s)
		}
	}
	if r := rep.Routed; r != nil {
		fmt.Printf("routed      device=%s (%d qubits)  swaps=%-6d cnot=%-8d u3=%-8d depth=%-8d cached=%v\n",
			r.Device, r.PhysQubits, r.SwapsAdded, r.CNOTs, r.Singles, r.Depth, rep.Result.Cached)
	}
	if t := rep.Tapered; t != nil {
		fmt.Printf("tapered     qubits=%d  pauli-weight=%-8d cnot=%-8d depth=%-8d E0=%.6f (%d symmetries)\n",
			t.Qubits, t.Weight, t.CNOTs, t.Depth, t.GroundEnergy, t.Symmetries)
	}
	if qasmOut != "" {
		w := os.Stdout
		if qasmOut != "-" {
			f, err := os.Create(qasmOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		cc := rep.Circuit
		if rep.Routed != nil {
			var err error
			if cc, err = rep.Routed.Circuit(ctx); err != nil {
				return err
			}
		}
		if err := cc.WriteQASM(w); err != nil {
			return err
		}
	}
	return nil
}
