// Command benchtab regenerates the paper's tables and figures.
//
// Usage:
//
//	benchtab -table 1          # Table I  (electronic structure)
//	benchtab -table 2          # Table II (Fermi–Hubbard)
//	benchtab -table 3          # Table III (neutrino oscillations)
//	benchtab -table 4          # Table IV (tetris-lite routing)
//	benchtab -table 5          # Table V  (rustiq-lite synthesis)
//	benchtab -table 6          # Table VI (HATT unopt vs opt)
//	benchtab -figure 10        # noisy-simulation heat maps
//	benchtab -figure 11        # IonQ Forte-1 noise profile study
//	benchtab -figure 12        # scalability curves
//	benchtab -all              # everything
//	benchtab -list             # the pkg/compiler methods the tables use
//	benchtab -perf -json BENCH_perf.json
//	                           # hot-path kernel suite, JSON artifact
//
// Scale knobs: -max-modes, -shots, -grid, -fh-modes, -fh-budget, -max-n.
//
// Mapping construction inside every table goes through the pkg/compiler
// registry, so the columns stay in lockstep with what `hattc -list`
// reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/prof"
	"repro/internal/version"
	"repro/pkg/compiler"
)

func main() {
	table := flag.Int("table", 0, "table number to regenerate (1-6)")
	figure := flag.Int("figure", 0, "figure number to regenerate (10-12)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	maxModes := flag.Int("max-modes", 0, "skip cases larger than this (0 = no limit)")
	shots := flag.Int("shots", 1000, "noisy-simulation shots")
	grid := flag.Int("grid", 4, "noise grid steps per axis (figure 10)")
	fhModes := flag.Int("fh-modes", 10, "largest case for the exhaustive FH search")
	fhBudget := flag.Int64("fh-budget", 2_000_000, "FH search visit budget")
	maxN := flag.Int("max-n", 20, "figure 12 maximum size")
	fhMaxN := flag.Int("fh-max-n", 5, "figure 12 maximum FH size")
	ablation := flag.String("ablation", "", "run an ablation study: beam | ordering | cache | tiebreak")
	routed := flag.Bool("routed", false, "Table-IV-style routed comparison through pkg/compiler WithDevice")
	routedDevices := flag.String("devices", strings.Join(bench.DefaultRoutedDevices, ","), "with -routed: comma-separated device specs")
	routedMethods := flag.String("methods", strings.Join(bench.DefaultRoutedMethods, ","), "with -routed: comma-separated mapping methods")
	perf := flag.Bool("perf", false, "run the hot-path kernel suite")
	jsonPath := flag.String("json", "", "with -perf: also write the kernel report as JSON to this path (BENCH_*.json)")
	summary := flag.Bool("summary", false, "print the headline HATT-vs-baseline reductions across Tables I-III")
	exact := flag.Bool("exact", false, "figure 10: use the density-matrix simulator (exact bias, no shots)")
	list := flag.Bool("list", false, "list the compiler methods the tables draw from and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String("benchtab"))
		return
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
	// Error paths below exit through os.Exit and skip this; profiles are
	// written for runs that complete.
	defer stopProf()

	if *list {
		// The tables compile every mapping through pkg/compiler; this is
		// the registry they resolve against.
		fmt.Println(strings.Join(compiler.Methods(), "\n"))
		return
	}

	opt := bench.DefaultOptions()
	opt.MaxModes = *maxModes
	opt.Shots = *shots
	opt.GridSteps = *grid
	opt.FHMaxModes = *fhModes
	opt.FHBudget = *fhBudget
	opt.MaxN = *maxN
	opt.FHMaxN = *fhMaxN

	w := os.Stdout
	run := func(n int) {
		switch n {
		case 1:
			bench.PrintRows(w, "Table I: electronic structure", bench.Table1(opt), bench.MappingNames)
		case 2:
			bench.PrintRows(w, "Table II: Fermi–Hubbard", bench.Table2(opt), bench.MappingNames)
		case 3:
			bench.PrintRows(w, "Table III: collective neutrino oscillation", bench.Table3(opt), bench.MappingNames)
		case 4:
			rows, err := bench.Table4(opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
				os.Exit(1)
			}
			bench.PrintTable4(w, rows)
		case 5:
			bench.PrintTable5(w, bench.Table5(opt))
		case 6:
			bench.PrintTable6(w, bench.Table6(opt))
		case 10:
			if *exact {
				cells, err := bench.Figure10Exact(opt)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchtab:", err)
					os.Exit(1)
				}
				bench.PrintFigure10Exact(w, cells)
				return
			}
			cells, err := bench.Figure10(opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
				os.Exit(1)
			}
			bench.PrintFigure10(w, cells)
		case 11:
			res, err := bench.Figure11(opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
				os.Exit(1)
			}
			bench.PrintFigure11(w, res)
		case 12:
			bench.PrintFigure12(w, bench.Figure12(opt))
		default:
			fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %d\n", n)
			os.Exit(2)
		}
	}
	if *all {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 10, 11, 12} {
			run(n)
		}
		bench.PrintBeamAblation(w, bench.BeamAblation(nil, opt))
		bench.PrintOrderingAblation(w, bench.OrderingAblation(opt))
		bench.PrintCacheAblation(w, bench.CacheAblation(opt))
		return
	}
	switch {
	case *routed:
		rows, err := bench.RoutedComparison(opt,
			strings.Split(*routedDevices, ","), strings.Split(*routedMethods, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		bench.PrintRouted(w, rows)
	case *perf:
		rep := bench.PerfSuite()
		bench.PrintKernels(w, rep.Kernels)
		if *jsonPath != "" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
				os.Exit(1)
			}
			if err := bench.WritePerfJSON(f, rep); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "benchtab:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
				os.Exit(1)
			}
			fmt.Fprintln(w, "wrote", *jsonPath)
		}
	case *summary:
		bench.PrintSummary(w, bench.HeadlineSummaries(opt))
	case *ablation != "":
		switch *ablation {
		case "beam":
			bench.PrintBeamAblation(w, bench.BeamAblation(nil, opt))
		case "ordering":
			bench.PrintOrderingAblation(w, bench.OrderingAblation(opt))
		case "cache":
			bench.PrintCacheAblation(w, bench.CacheAblation(opt))
		case "tiebreak":
			bench.PrintTieBreakAblation(w, bench.TieBreakAblation(opt))
		default:
			fmt.Fprintf(os.Stderr, "benchtab: unknown ablation %q\n", *ablation)
			os.Exit(2)
		}
	case *table != 0:
		run(*table)
	case *figure != 0:
		run(*figure)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
