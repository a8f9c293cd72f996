package bench

import (
	"encoding/json"
	"io"
	"runtime"
)

// PerfReport is the machine-readable perf artifact (BENCH_perf.json): the
// hot-path kernel microbenchmarks and the GOMAXPROCS they ran under. The
// CI bench-regression gate compares its kernels against the committed
// baseline.
type PerfReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	Kernels    []KernelRecord `json:"kernels,omitempty"`
}

// PerfSuite runs the kernel suite on this host.
func PerfSuite() PerfReport {
	return PerfReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Kernels: KernelSuite()}
}

// WritePerfJSON serializes a PerfReport as indented JSON.
func WritePerfJSON(w io.Writer, rep PerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
