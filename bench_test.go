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

func BenchmarkHATTConstruction3x3(b *testing.B) {
	// Reset the memo every iteration: time the greedy search itself, not
	// a build-memo replay.
	mh := models.FermiHubbard(3, 3, 1, 4).Majorana(1e-12)
	ctx, weight := context.Background(), weightOf(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ResetBuildCache()
		if weight(core.Build(ctx, mh, core.Options{})) <= 0 {
			b.Fatal("bad weight")
		}
	}
}

func BenchmarkHATTConstruction4x4(b *testing.B) {
	mh := models.FermiHubbard(4, 4, 1, 4).Majorana(1e-12)
	ctx, weight := context.Background(), weightOf(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ResetBuildCache()
		if weight(core.Build(ctx, mh, core.Options{})) <= 0 {
			b.Fatal("bad weight")
		}
	}
}

func BenchmarkHATTMemoHit3x3(b *testing.B) {
	// The batch-serving fast path: every call after the first replays the
	// memoized merge schedule. The delta vs BenchmarkHATTConstruction3x3
	// is what the memo saves a multi-tenant batch.
	mh := models.FermiHubbard(3, 3, 1, 4).Majorana(1e-12)
	ctx, weight := context.Background(), weightOf(b)
	core.ResetBuildCache()
	weight(core.Build(ctx, mh, core.Options{})) // warm the memo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if weight(core.Build(ctx, mh, core.Options{})) <= 0 {
			b.Fatal("bad weight")
		}
	}
}

func BenchmarkCompilerCompileHATT3x3(b *testing.B) {
	// End-to-end facade path over the same workload as
	// BenchmarkHATTConstruction3x3; the memo is reset every iteration so
	// the delta between the two is the registry + options + boundary
	// overhead of pkg/compiler, not a cache hit.
	mh := models.FermiHubbard(3, 3, 1, 4).Majorana(1e-12)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ResetBuildCache()
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

func BenchmarkAnneal2x3(b *testing.B) {
	mh := models.FermiHubbard(2, 3, 1, 4).Majorana(1e-12)
	ctx, weight := context.Background(), weightOf(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if weight(core.Anneal(ctx, mh, core.Options{Iters: 500, Seed: int64(i + 1)})) <= 0 {
			b.Fatal("bad weight")
		}
	}
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

func BenchmarkBeamSearch2x2Width8(b *testing.B) {
	mh := models.FermiHubbard(2, 2, 1, 4).Majorana(1e-12)
	ctx, weight := context.Background(), weightOf(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if weight(core.Beam(ctx, mh, core.Options{Width: 8})) <= 0 {
			b.Fatal("bad weight")
		}
	}
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
// single-core host the pair documents the pool's overhead instead.

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
		core.ResetBuildCache()
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
func BenchmarkCompileHATTHubbardParallel4(b *testing.B) { benchCompileParallel(b, "hatt", 4) }

func BenchmarkCompileBatch8xH2(b *testing.B) {
	// Eight tenants requesting the same model: the batch fans out across
	// items and the build memo collapses the duplicate searches.
	items := make([]compiler.BatchItem, 8)
	for i := range items {
		items[i] = compiler.BatchItem{Model: "h2", Spec: "hatt"}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ResetBuildCache()
		for _, br := range compiler.CompileBatch(ctx, items, compiler.WithParallelism(4)) {
			if br.Err != nil {
				b.Fatal(br.Err)
			}
		}
	}
}

func BenchmarkPerfSuiteJSON(b *testing.B) {
	// Regenerates the machine-readable sequential-vs-parallel sweep and
	// writes it to BENCH_perf.json; CI runs this at -benchtime=1x and
	// uploads every BENCH_*.json as the per-PR perf artifact.
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		rep := bench.PerfSuite(opt, 4)
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
