package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/models"
	"repro/pkg/compiler"
)

// PerfRecord is one machine-readable benchmark measurement: a (method,
// model) cell with its sequential and parallel wall times. CI uploads
// these as BENCH_*.json artifacts so the perf trajectory of every PR is
// recorded.
type PerfRecord struct {
	Model        string  `json:"model"`
	Modes        int     `json:"modes"`
	Method       string  `json:"method"`
	PauliWeight  int     `json:"pauli_weight"`
	SequentialMS float64 `json:"sequential_ms"` // WithParallelism(1)
	ParallelMS   float64 `json:"parallel_ms"`   // WithParallelism(workers)
	Speedup      float64 `json:"speedup"`       // sequential / parallel
	Identical    bool    `json:"identical"`     // mappings byte-identical across worker counts
}

// PerfReport is the full sequential-vs-parallel sweep plus the hot-path
// kernel microbenchmarks and the host facts needed to interpret them.
type PerfReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workers    int            `json:"workers"`
	Records    []PerfRecord   `json:"records"`
	Kernels    []KernelRecord `json:"kernels,omitempty"`
}

// perfModels is the model sweep; entries above opt.MaxModes are skipped.
var perfModels = []string{"h2", "hubbard:2x2", "hubbard:2x3"}

// perfSpecs is the method sweep: beam and anneal, which the parallel
// engine accelerates (candidate scoring for beam, restart chains for
// anneal), and hatt, which scores sequentially at any parallelism.
var perfSpecs = []string{"hatt", "beam:6", "anneal"}

// PerfSuite measures every (method, model) cell at WithParallelism(1)
// and WithParallelism(workers) — workers < 1 means GOMAXPROCS — and
// verifies the two runs produce byte-identical mappings (the engine's
// reproducibility guarantee).
func PerfSuite(opt Options, workers int) PerfReport {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := PerfReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers}
	ctx := context.Background()
	for _, model := range perfModels {
		h, err := models.Resolve(model)
		if err != nil {
			panic("bench: " + err.Error())
		}
		if opt.MaxModes > 0 && h.Modes > opt.MaxModes {
			continue
		}
		mh := h.Majorana(1e-12)
		for _, spec := range perfSpecs {
			run := func(par int) (*compiler.Result, time.Duration) {
				opts := []compiler.Option{
					compiler.WithParallelism(par),
					compiler.WithSeed(1),
					// Fixed restart count at every parallelism, so the
					// anneal rows compare equal work and equal results.
					compiler.WithAnnealRestarts(workers),
					compiler.WithAnnealSchedule(500, 0, 0),
				}
				var best time.Duration
				var res *compiler.Result
				for k := 0; k < 3; k++ {
					t0 := time.Now()
					r, err := compiler.Compile(ctx, spec, mh, opts...)
					d := time.Since(t0)
					if err != nil {
						panic("bench: " + spec + ": " + err.Error())
					}
					if k == 0 || d < best {
						best = d
					}
					res = r
				}
				return res, best
			}
			seqRes, seqT := run(1)
			parRes, parT := run(workers)
			var a, b bytes.Buffer
			_ = seqRes.Mapping.WriteText(&a)
			_ = parRes.Mapping.WriteText(&b)
			speedup := 0.0
			if parT > 0 {
				speedup = float64(seqT) / float64(parT)
			}
			rep.Records = append(rep.Records, PerfRecord{
				Model:        model,
				Modes:        h.Modes,
				Method:       spec,
				PauliWeight:  parRes.PredictedWeight,
				SequentialMS: float64(seqT) / float64(time.Millisecond),
				ParallelMS:   float64(parT) / float64(time.Millisecond),
				Speedup:      speedup,
				Identical:    bytes.Equal(a.Bytes(), b.Bytes()),
			})
		}
	}
	rep.Kernels = KernelSuite()
	return rep
}

// WritePerfJSON serializes a PerfReport as indented JSON.
func WritePerfJSON(w io.Writer, rep PerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// PrintPerf renders the sweep as a human-readable table.
func PrintPerf(w io.Writer, rep PerfReport) {
	fmt.Fprintf(w, "== Parallel compilation: sequential vs %d workers (GOMAXPROCS %d) ==\n",
		rep.Workers, rep.GOMAXPROCS)
	fmt.Fprintf(w, "%-14s %5s %-8s %8s %12s %12s %8s %10s\n",
		"Model", "Modes", "Method", "Weight", "seq", "par", "speedup", "identical")
	for _, r := range rep.Records {
		fmt.Fprintf(w, "%-14s %5d %-8s %8d %12s %12s %7.2fx %10v\n",
			r.Model, r.Modes, r.Method, r.PauliWeight,
			time.Duration(r.SequentialMS*float64(time.Millisecond)).Round(time.Microsecond),
			time.Duration(r.ParallelMS*float64(time.Millisecond)).Round(time.Microsecond),
			r.Speedup, r.Identical)
	}
	fmt.Fprintln(w)
	PrintKernels(w, rep.Kernels)
}
