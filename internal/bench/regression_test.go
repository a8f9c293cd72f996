package bench

import (
	"bytes"
	"strings"
	"testing"
)

func kernelPairRecords(kernel string, baseNs, fastNs, fastAllocs float64) []KernelRecord {
	return []KernelRecord{
		{Kernel: kernel, Impl: "baseline", NsPerOp: baseNs},
		{Kernel: kernel, Impl: "fast", NsPerOp: fastNs, AllocsPerOp: fastAllocs},
	}
}

func TestCompareKernelsCleanRun(t *testing.T) {
	base := append(kernelPairRecords("apply", 1000, 40, 0), kernelPairRecords("expect", 500, 50, 0)...)
	// A fresh run on a slower machine, same ratios: no regression.
	fresh := append(kernelPairRecords("apply", 3000, 120, 0), kernelPairRecords("expect", 1500, 150, 0)...)
	deltas, regressed := CompareKernels(base, fresh, 0.20)
	if regressed {
		t.Fatalf("clean run flagged: %+v", deltas)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
}

// TestCompareKernelsCatchesInjectedRegression is the "demonstrably
// fails" half of the CI contract: a 30% ratio slip or a new allocation
// must trip the 20% gate.
func TestCompareKernelsCatchesInjectedRegression(t *testing.T) {
	base := kernelPairRecords("apply", 1000, 40, 0)

	// Injected: fast path 30% slower relative to its baseline.
	slower := kernelPairRecords("apply", 1000, 52, 0)
	deltas, regressed := CompareKernels(base, slower, 0.20)
	if !regressed || !deltas[0].Regressed {
		t.Fatalf("30%% ratio regression not caught: %+v", deltas)
	}
	if !strings.Contains(deltas[0].Reason, "time ratio") {
		t.Errorf("reason = %q", deltas[0].Reason)
	}

	// Injected: the zero-allocation path starts allocating.
	allocs := kernelPairRecords("apply", 1000, 40, 2)
	deltas, regressed = CompareKernels(base, allocs, 0.20)
	if !regressed {
		t.Fatalf("allocation regression not caught: %+v", deltas)
	}
	if !strings.Contains(deltas[0].Reason, "allocs/op") {
		t.Errorf("reason = %q", deltas[0].Reason)
	}

	// Injected: a kernel vanishes from the fresh sweep.
	deltas, regressed = CompareKernels(base, nil, 0.20)
	if !regressed || !strings.Contains(deltas[0].Reason, "missing") {
		t.Fatalf("missing kernel not caught: %+v", deltas)
	}

	// Injected: a fresh kernel with no committed baseline — coverage
	// loss in the other direction — must fail until the baseline is
	// regenerated.
	fresh := append(kernelPairRecords("apply", 1000, 40, 0), kernelPairRecords("brand_new", 800, 80, 0)...)
	deltas, regressed = CompareKernels(base, fresh, 0.20)
	if !regressed {
		t.Fatalf("baseline-less kernel not caught: %+v", deltas)
	}
	found := false
	for _, d := range deltas {
		if d.Kernel == "brand_new" && d.Regressed && strings.Contains(d.Reason, "baseline") {
			found = true
		}
	}
	if !found {
		t.Errorf("no delta flags the baseline-less kernel: %+v", deltas)
	}
}

func TestCompareKernelsToleratesNoise(t *testing.T) {
	base := kernelPairRecords("apply", 1000, 40, 0)
	// 15% ratio drift and fractional alloc jitter stay under the gate.
	noisy := kernelPairRecords("apply", 1000, 46, 0.3)
	if _, regressed := CompareKernels(base, noisy, 0.20); regressed {
		t.Error("within-tolerance drift flagged")
	}
}

func TestMergeKernelRunsKeepsBestRatio(t *testing.T) {
	run1 := append(kernelPairRecords("apply", 1000, 60, 0), kernelPairRecords("expect", 500, 40, 0)...)
	run2 := append(kernelPairRecords("apply", 1000, 45, 0), kernelPairRecords("expect", 500, 55, 0)...)
	merged := MergeKernelRuns(run1, run2)
	if len(merged) != 4 {
		t.Fatalf("merged %d records, want 4", len(merged))
	}
	got := map[string]float64{}
	for _, r := range merged {
		if r.Impl == "fast" {
			got[r.Kernel] = r.NsPerOp
		}
	}
	if got["apply"] != 45 || got["expect"] != 40 {
		t.Errorf("merged fast ns = %v, want apply:45 expect:40", got)
	}
	// A noisy run that would trip the gate alone passes once merged with
	// a clean one.
	base := kernelPairRecords("apply", 1000, 40, 0)
	noisy := kernelPairRecords("apply", 1000, 55, 0) // +37% alone
	clean := kernelPairRecords("apply", 1000, 42, 0) // +5% alone
	if _, regressed := CompareKernels(base, MergeKernelRuns(noisy, clean), 0.20); regressed {
		t.Error("best-of-N merge did not absorb one noisy run")
	}
	// But a genuine regression present in every run still fails.
	if _, regressed := CompareKernels(base, MergeKernelRuns(noisy, noisy), 0.20); !regressed {
		t.Error("regression present in all runs slipped through")
	}
}

func TestReadPerfJSONRoundTrip(t *testing.T) {
	rep := PerfReport{
		GOMAXPROCS: 4,
		Kernels:    kernelPairRecords("apply", 1000, 40, 0),
	}
	var buf bytes.Buffer
	if err := WritePerfJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPerfJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Kernels) != 2 || back.GOMAXPROCS != 4 {
		t.Errorf("round trip = %+v", back)
	}
	if _, err := ReadPerfJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestPrintKernelDeltas(t *testing.T) {
	base := kernelPairRecords("apply", 1000, 40, 0)
	fresh := kernelPairRecords("apply", 1000, 60, 0)
	deltas, _ := CompareKernels(base, fresh, 0.20)
	var buf bytes.Buffer
	PrintKernelDeltas(&buf, deltas)
	out := buf.String()
	if !strings.Contains(out, "apply") || !strings.Contains(out, "REGRESSED") {
		t.Errorf("delta table:\n%s", out)
	}
}
