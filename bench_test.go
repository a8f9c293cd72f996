// Package repro's root benchmarks regenerate a scaled version of every
// table and figure in the paper's evaluation (one benchmark per
// experiment), plus ablation benches for the design choices DESIGN.md
// calls out. Full-scale regeneration is cmd/benchtab's job; these keep
// each experiment exercised by `go test -bench`.
package repro

import (
	"bytes"
	"context"
	"io"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/linalg"
	"repro/internal/mapping"
	"repro/internal/models"
	"repro/internal/pauli"
	"repro/internal/sim"
	"repro/internal/taper"
	"repro/pkg/compiler"
)

// benchOptions keeps the testing.B experiments at smoke scale.
func benchOptions() bench.Options {
	return bench.Options{
		MaxModes:   14,
		FHMaxModes: 4,
		FHBudget:   100_000,
		Shots:      50,
		GridSteps:  2,
		MaxN:       10,
		FHMaxN:     4,
	}
}

func BenchmarkTable1Electronic(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := bench.Table1(opt)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable2Hubbard(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := bench.Table2(opt)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable3Neutrino(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := bench.Table3(opt)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable4TetrisRouting(b *testing.B) {
	opt := benchOptions()
	opt.MaxModes = 6
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable5RustiqSynthesis(b *testing.B) {
	opt := benchOptions()
	opt.MaxModes = 12
	for i := 0; i < b.N; i++ {
		rows := bench.Table5(opt)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable6UnoptVsOpt(b *testing.B) {
	opt := benchOptions()
	opt.MaxModes = 12
	for i := 0; i < b.N; i++ {
		rows := bench.Table6(opt)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure10NoisyGrid(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		cells, err := bench.Figure10(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

func BenchmarkFigure11IonQ(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure11(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12Scalability(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := bench.Figure12(opt)
		bench.PrintFigure12(io.Discard, rows)
	}
}

// --- Ablation benches -----------------------------------------------------

// weightOf returns a function that unwraps a core search's result to its
// weight, failing b on an error.
func weightOf(b *testing.B) func(*core.Result, error) int {
	return func(r *core.Result, err error) int {
		if err != nil {
			b.Fatal(err)
		}
		return r.PredictedWeight
	}
}

func BenchmarkCompilerCompileHATT3x3(b *testing.B) {
	// End-to-end facade path over BenchmarkBuild/hubbard:3x3's workload:
	// the delta between the two is the registry + options + boundary
	// overhead of pkg/compiler.
	mh := models.FermiHubbard(3, 3, 1, 4).Majorana(1e-12)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := compiler.Compile(ctx, "hatt", mh)
		if err != nil {
			b.Fatal(err)
		}
		if res.PredictedWeight <= 0 {
			b.Fatal("bad weight")
		}
	}
}

func BenchmarkCompilerPipelineH2(b *testing.B) {
	// Full pipeline: model build, Majorana expansion, mapping, synthesis,
	// and metrics in one facade call.
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rep, err := compiler.Pipeline{Model: "h2", Method: "hatt"}.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if rep.CNOTs <= 0 {
			b.Fatal("bad circuit")
		}
	}
}

// BenchmarkMajorana times the preprocessing step every compile pays, the
// Majorana expansion of a resolved model, cache hits included.
func BenchmarkMajorana(b *testing.B) {
	for _, spec := range []string{"h2", "hubbard:3x3", "hubbard:4x4"} {
		h, err := models.Resolve(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(h.Majorana(1e-12).Terms) == 0 {
					b.Fatal("empty expansion")
				}
			}
		})
	}
}

func BenchmarkHATTUnoptConstruction3x3(b *testing.B) {
	mh := models.FermiHubbard(3, 3, 1, 4).Majorana(1e-12)
	ctx, weight := context.Background(), weightOf(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if weight(core.BuildUnopt(ctx, mh, core.Options{})) <= 0 {
			b.Fatal("bad weight")
		}
	}
}

func BenchmarkHATTUncached3x3(b *testing.B) {
	// Ablation: Algorithm 2 without the Algorithm 3 caches (O(N⁴)).
	mh := models.FermiHubbard(3, 3, 1, 4).Majorana(1e-12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.BuildUncached(mh).PredictedWeight <= 0 {
			b.Fatal("bad weight")
		}
	}
}

func BenchmarkExhaustiveSearch2x2Budget(b *testing.B) {
	mh := models.FermiHubbard(2, 2, 1, 4).Majorana(1e-12)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Exhaustive(ctx, mh, core.Options{MaxVisits: 50_000})
		if err != nil || res.PredictedWeight <= 0 {
			b.Fatal("bad weight", err)
		}
	}
}

// missSearchModels are hattbench miss-search's models, the traffic the
// anneal and beam searches serve.
var missSearchModels = []string{"hubbard:2x3", "hubbard:3x3", "neutrino:3x2"}

// benchSearch times search on each of specs, with opts(i) on run i.
func benchSearch(b *testing.B, specs []string, search func(context.Context, *fermion.MajoranaHamiltonian, core.Options) (*core.Result, error), opts func(i int) core.Options) {
	ctx := context.Background()
	for _, spec := range specs {
		h, err := models.Resolve(spec)
		if err != nil {
			b.Fatal(err)
		}
		mh := h.Majorana(1e-12)
		b.Run(spec, func(b *testing.B) {
			b.ReportAllocs()
			weight := weightOf(b)
			for i := 0; i < b.N; i++ {
				if weight(search(ctx, mh, opts(i))) <= 0 {
					b.Fatal("bad weight")
				}
			}
		})
	}
}

// BenchmarkBuild times the optimized HATT construction from hattbench's
// request sizes (hubbard:3x3, and 4x4 as miss-inline's 32-mode lattice)
// up to 200 modes, where its score table matters most.
func BenchmarkBuild(b *testing.B) {
	specs := []string{"hubbard:3x3", "hubbard:4x4", "molecule:20", "hubbard:6x6", "hubbard:10x10"}
	benchSearch(b, specs, core.Build, func(int) core.Options { return core.Options{} })
}

// BenchmarkAnneal times one default-schedule anneal, a fresh seed per
// run, as a seeded anneal request compiles it.
func BenchmarkAnneal(b *testing.B) {
	benchSearch(b, missSearchModels, core.Anneal, func(i int) core.Options { return core.Options{Seed: int64(i + 1)} })
}

func BenchmarkMappingApplyNeutrino(b *testing.B) {
	// Cost of mapping application (string multiplication) in isolation.
	mh := models.NeutrinoOscillation(4, 2, 1).Majorana(1e-12)
	m := mapping.JordanWigner(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Apply(mh).Weight() <= 0 {
			b.Fatal("bad weight")
		}
	}
}

func BenchmarkCircuitCompileH2O(b *testing.B) {
	mh := models.SyntheticMolecule("H2O", 14, 103, 0.56).Majorana(1e-12)
	hq := mapping.JordanWigner(14).Apply(mh)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if circuit.Compile(hq, circuit.OrderLexicographic).CNOTCount() <= 0 {
			b.Fatal("bad circuit")
		}
	}
}

// BenchmarkBeam times beam search at width 4, the width a portfolio
// races by default.
func BenchmarkBeam(b *testing.B) {
	benchSearch(b, missSearchModels, core.Beam, func(int) core.Options { return core.Options{Width: 4} })
}

func BenchmarkTieBreakSupport2x3(b *testing.B) {
	mh := models.FermiHubbard(2, 3, 1, 4).Majorana(1e-12)
	ctx, weight := context.Background(), weightOf(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if weight(core.Build(ctx, mh, core.Options{TieBreak: core.TieSupport})) <= 0 {
			b.Fatal("bad weight")
		}
	}
}

// --- Parallel engine benches ----------------------------------------------
//
// The BenchmarkCompile*Parallel pairs measure the same search at
// WithParallelism(1) and WithParallelism(4); on a multi-core host the
// wall-time ratio is the parallel engine's speedup (the mappings are
// byte-identical either way — asserted in pkg/compiler tests). On a
// single-core host the pair documents the pool's overhead instead. hatt
// scores sequentially at any parallelism, so it has no Parallel4 entry.

func benchCompileParallel(b *testing.B, spec string, par int) {
	mh := models.FermiHubbard(2, 3, 1, 4).Majorana(1e-12)
	ctx := context.Background()
	opts := []compiler.Option{
		compiler.WithParallelism(par),
		compiler.WithSeed(1),
		compiler.WithAnnealRestarts(4),
		compiler.WithAnnealSchedule(2000, 0, 0),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := compiler.Compile(ctx, spec, mh, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if res.PredictedWeight <= 0 {
			b.Fatal("bad weight")
		}
	}
}

func BenchmarkCompileBeamHubbardParallel1(b *testing.B) { benchCompileParallel(b, "beam:6", 1) }
func BenchmarkCompileBeamHubbardParallel4(b *testing.B) { benchCompileParallel(b, "beam:6", 4) }

func BenchmarkCompileAnnealHubbardParallel1(b *testing.B) { benchCompileParallel(b, "anneal", 1) }
func BenchmarkCompileAnnealHubbardParallel4(b *testing.B) { benchCompileParallel(b, "anneal", 4) }

func BenchmarkCompileHATTHubbardParallel1(b *testing.B) { benchCompileParallel(b, "hatt", 1) }

func BenchmarkPerfSuiteJSON(b *testing.B) {
	// Regenerates the machine-readable kernel report and writes it to
	// BENCH_perf.json; CI runs this at -benchtime=1x and uploads every
	// BENCH_*.json as the per-PR perf artifact.
	for i := 0; i < b.N; i++ {
		rep := bench.PerfSuite()
		var buf bytes.Buffer
		if err := bench.WritePerfJSON(&buf, rep); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_perf.json", buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDensityNoisyH2(b *testing.B) {
	mh := models.H2STO3G().Majorana(1e-12)
	m := mapping.JordanWigner(4)
	hq := m.Apply(mh)
	cc := circuit.Compile(hq, circuit.OrderLexicographic)
	nm := sim.IonQForte1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.ExactNoisyEnergy(nil, cc, hq, nm)
	}
}

func BenchmarkTaperH2(b *testing.B) {
	hq := mapping.JordanWigner(4).ApplyFermionic(models.H2STO3G())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := taper.GroundSector(context.Background(), hq, linalg.GroundEnergy); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQWCGroupingNeutrino(b *testing.B) {
	mh := models.NeutrinoOscillation(3, 2, 1).Majorana(1e-12)
	hq := mapping.JordanWigner(12).Apply(mh)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(pauli.GroupQWC(hq)) == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkHeadlineSummary(b *testing.B) {
	opt := benchOptions()
	opt.MaxModes = 8
	opt.FHMaxModes = 0
	for i := 0; i < b.N; i++ {
		if len(bench.HeadlineSummaries(opt)) != 3 {
			b.Fatal("bad summary")
		}
	}
}
