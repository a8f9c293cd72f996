package bench

import (
	"fmt"
	"io"
	"math/cmplx"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/pauli"
	"repro/internal/sim"
)

// KernelRecord is one hot-path microbenchmark measurement. Every kernel is
// measured twice — the pre-optimization reference implementation kept in
// the tree ("baseline") and the shipping fast path ("fast") — so each
// BENCH_*.json carries its own before/after evidence.
type KernelRecord struct {
	Kernel      string  `json:"kernel"`
	Impl        string  `json:"impl"` // "baseline" | "fast"
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// KernelNoAlloc names, for each kernel whose fast path must beat the
// baseline's allocation count, the //hatt:noalloc-annotated function it
// exercises, as "import/path:Recv.Name". The allocation-gate test
// derives its kernel list from this map and verifies each named
// function really carries the annotation, so the static noalloc pass,
// the runtime gate, and this table can never drift apart silently.
var KernelNoAlloc = map[string]string{
	"apply_pauli_14q":      "repro/internal/sim:State.ApplyPauli",
	"expectation_12q_40t":  "repro/internal/sim:State.Expectation",
	"mul_majorana_14q":     "repro/internal/pauli:String.MulInto",
	"hamiltonian_add_warm": "repro/internal/pauli:Hamiltonian.Add",
}

// measureKernel times f over iters runs on a quiesced heap and reports
// per-op wall time and allocation counts. It is deliberately lighter than
// testing.Benchmark (fixed iteration counts, one GC) so the whole kernel
// suite stays cheap enough for CI and unit tests. The timing window runs
// five times and the fastest wins — transient host noise only ever
// inflates a measurement, so the minimum is the stable estimate the CI
// bench-regression gate compares across runs; allocation counters are
// deterministic and come from the first window.
func measureKernel(iters int, f func()) (ns, allocs, bytes float64) {
	f() // warm caches and lazy initialization outside the window
	for rep := 0; rep < 5; rep++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		n := float64(iters)
		if w := float64(d.Nanoseconds()) / n; rep == 0 || w < ns {
			ns = w
		}
		if rep == 0 {
			allocs = float64(m1.Mallocs-m0.Mallocs) / n
			bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n
		}
	}
	return ns, allocs, bytes
}

func kernelPair(out []KernelRecord, kernel string, iters int, baseline, fast func()) []KernelRecord {
	ns, al, by := measureKernel(iters, baseline)
	out = append(out, KernelRecord{Kernel: kernel, Impl: "baseline", NsPerOp: ns, AllocsPerOp: al, BytesPerOp: by})
	ns, al, by = measureKernel(iters, fast)
	return append(out, KernelRecord{Kernel: kernel, Impl: "fast", NsPerOp: ns, AllocsPerOp: al, BytesPerOp: by})
}

// randomKernelPauli mirrors the simulators' workload: a dense random
// string on n qubits.
func randomKernelPauli(r *rand.Rand, n int) pauli.String {
	s := pauli.Identity(n)
	for q := 0; q < n; q++ {
		s.SetLetter(q, pauli.Letter(r.Intn(4)))
	}
	return s
}

// KernelSuite measures the four algebra/simulation kernels this
// repository's hot paths are built from — ApplyPauli, Hamiltonian
// expectation, string product, Hamiltonian.Add — plus the BuildUnopt
// construction on the largest bundled molecule, each as a
// baseline-vs-fast pair.
func KernelSuite() []KernelRecord {
	var out []KernelRecord
	r := rand.New(rand.NewSource(1))

	// ApplyPauli on a 14-qubit state (16384 amplitudes).
	st := sim.NewState(14)
	for i := range st.Amp {
		st.Amp[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	p14 := randomKernelPauli(r, 14)
	out = kernelPair(out, "apply_pauli_14q", 200,
		func() { st.ApplyPauliSlow(p14) },
		func() { st.ApplyPauli(p14) })

	// Hamiltonian expectation: 40 random terms on a 12-qubit state.
	st12 := sim.NewState(12)
	for i := range st12.Amp {
		st12.Amp[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	h12 := pauli.NewHamiltonian(12)
	for i := 0; i < 40; i++ {
		h12.Add(complex(r.NormFloat64(), 0), randomKernelPauli(r, 12))
	}
	out = kernelPair(out, "expectation_12q_40t", 30,
		func() {
			// Pre-mask path: clone the state per term.
			e := 0.0
			for _, t := range h12.Terms() {
				c := st12.Clone()
				c.ApplyPauliSlow(t.S)
				var te complex128
				for k := range st12.Amp {
					te += cmplx.Conj(st12.Amp[k]) * c.Amp[k]
				}
				e += real(t.Coeff * te)
			}
		},
		func() { _ = st12.Expectation(h12) })

	// String product over real Majorana strings (molecule:14 under JW,
	// weight up to 14 with long Z tails).
	mol, err := models.Resolve("molecule:14")
	if err != nil {
		panic("bench: " + err.Error())
	}
	jw := mapping.JordanWigner(mol.Modes)
	ma, mb := jw.Majorana(7), jw.Majorana(20)
	dst := pauli.Identity(mol.Modes)
	out = kernelPair(out, "mul_majorana_14q", 200_000,
		func() { _ = ma.Mul(mb) },
		func() { ma.MulInto(&dst, mb) })

	// Hamiltonian.Add on a warm map: the dedup path mapping.Apply hammers.
	strs := make([]pauli.String, 64)
	warm := pauli.NewHamiltonian(32)
	legacy := make(map[string]pauli.Term, 64)
	for i := range strs {
		strs[i] = randomKernelPauli(r, 32)
		warm.Add(1, strs[i])
		legacy[strs[i].Key()] = pauli.Term{Coeff: 1, S: strs[i]}
	}
	i := 0
	out = kernelPair(out, "hamiltonian_add_warm", 200_000,
		func() {
			// Pre-fingerprint semantics: build the Key string per call.
			s := strs[i%len(strs)]
			k := s.Key()
			t := legacy[k]
			t.Coeff += 0.5 * s.LetterCoeff()
			legacy[k] = t
			i++
		},
		func() {
			warm.Add(0.5, strs[i%len(strs)])
			i++
		})

	// BuildUnopt on the largest bundled molecule: the pairwise-delta
	// prune versus the exhaustive triple scan.
	mh := mol.Majorana(1e-12)
	out = kernelPair(out, "build_unopt_molecule14", 3,
		func() { core.BuildUnoptReference(mh) },
		func() { search(core.BuildUnopt, mh, core.Options{}) })

	return out
}

// PrintKernels renders the kernel suite as a before/after table.
func PrintKernels(w io.Writer, ks []KernelRecord) {
	if len(ks) == 0 {
		return
	}
	fmt.Fprintln(w, "== Hot-path kernels: baseline vs fast ==")
	fmt.Fprintf(w, "%-24s %-9s %14s %12s %12s\n", "Kernel", "Impl", "ns/op", "allocs/op", "B/op")
	for _, k := range ks {
		fmt.Fprintf(w, "%-24s %-9s %14.0f %12.1f %12.0f\n",
			k.Kernel, k.Impl, k.NsPerOp, k.AllocsPerOp, k.BytesPerOp)
	}
	fmt.Fprintln(w)
}
