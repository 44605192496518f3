// Command paper regenerates every table and figure of the paper's
// evaluation section:
//
//	-fig2       Section 2.1 / Figure 2 function classification
//	-table 1    Table 1 (die-area comparison)
//	-table 2    Table 2 (top-10 path-slack comparison)
//	-claims     the derived Section 3.2 statistics
//	-compaction the ~15% compaction ablation (E4)
//	-sweep      the granularity sweep (E8)
//	-all        everything above
//
// Defect-aware fabric (robustness experiments):
//
//	-defect-rate R   run the yield sweep: R defects per fabric tile
//	-defect-maps N   number of defect maps in the sweep (default 50)
//	-defect-seed S   first defect-map seed
//	-keep-going      continue the matrix past failing cells (error ledger)
//	-timeout D       overall wall-clock budget (e.g. 30s); SIGINT also cancels
//
// Observability:
//
//	-trace F    write a Chrome trace-event JSON (load in chrome://tracing
//	            or ui.perfetto.dev) of every flow run — one row per
//	            worker, stage spans, solver counters, repair attempts —
//	            and print a per-stage wall-time summary on stderr
//
// Scale: -scale test (fast miniatures) or -scale paper (gate counts
// approximating the published designs; minutes of runtime).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/core"
	"vpga/internal/obs"
	"vpga/internal/qor"
)

// flushTrace, when tracing is on, writes the Chrome trace file and the
// stderr stage summary; fatalf calls it so a partial trace survives an
// aborted experiment.
var flushTrace = func() {}

func main() {
	table := flag.Int("table", 0, "regenerate table 1 or 2")
	fig2 := flag.Bool("fig2", false, "regenerate the Figure 2 analysis")
	claims := flag.Bool("claims", false, "derive the Section 3.2 statistics")
	compaction := flag.Bool("compaction", false, "run the compaction ablation (E4)")
	sweep := flag.Bool("sweep", false, "run the granularity sweep (E8)")
	domains := flag.Bool("domains", false, "run the application-domain exploration (Sec. 4 future work)")
	routing := flag.Bool("routing", false, "run the routing-architecture sweep (Sec. 4 future work)")
	all := flag.Bool("all", false, "run everything")
	scale := flag.String("scale", "test", "benchmark scale: test or paper")
	seed := flag.Int64("seed", 1, "random seed")
	seeds := flag.Int("seeds", 0, "run the claims over N seeds and report mean/min/max (stability study)")
	effort := flag.Int("effort", 0, "placement effort (0 = default)")
	placeWorkers := flag.Int("place-workers", 0, "annealer workers per flow run (0 or 1 = single-threaded; results are identical at any count)")
	parallel := flag.Int("parallel", 0, "max concurrent flow runs (0 = all cores, 1 = sequential; results are identical either way)")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget (0 = none); expiry cancels in-flight runs")
	defectRate := flag.Float64("defect-rate", 0, "defect rate per fabric tile; > 0 runs the yield sweep")
	defectSeed := flag.Int64("defect-seed", 100, "first defect-map seed of the yield sweep")
	defectMaps := flag.Int("defect-maps", 50, "number of defect maps in the yield sweep")
	keepGoing := flag.Bool("keep-going", false, "continue the matrix past failing cells; failures land in the error ledger")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of every flow run to this file and a per-stage summary to stderr")
	ledgerPath := flag.String("ledger", "", "append one QoR record per completed matrix cell to this JSONL run ledger")
	flag.Parse()

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
		path := *traceFile
		flushTrace = func() {
			if err := tracer.WriteChromeTraceFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "paper: trace: %v\n", err)
				return
			}
			fmt.Fprint(os.Stderr, tracer.SummaryTable())
			fmt.Fprintf(os.Stderr, "trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", path)
		}
		defer flushTrace()
	}

	// The process-wide context: cancelled by -timeout expiry or SIGINT,
	// draining every worker pool at the next iteration boundary.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	if *all {
		*fig2, *claims, *compaction, *sweep, *domains, *routing = true, true, true, true, true, true
		*table = 3 // both
	}
	if !*fig2 && !*claims && !*compaction && !*sweep && !*domains && !*routing &&
		*seeds == 0 && *table == 0 && *defectRate == 0 {
		flag.Usage()
		os.Exit(2)
	}

	suite := bench.TestSuite()
	if *scale == "paper" {
		suite = bench.PaperSuite()
	}

	if *fig2 {
		fmt.Println(core.Fig2Text())
	}

	if *seeds > 0 {
		var list []int64
		for i := 0; i < *seeds; i++ {
			list = append(list, *seed+int64(i))
		}
		st, err := core.RunStabilityStudy(ctx, suite, list, core.StabilityOptions{
			PlaceEffort: *effort, PlaceWorkers: *placeWorkers, Parallel: *parallel, Trace: tracer,
			Progress: func(line string) { fmt.Fprintln(os.Stderr, "  "+line) },
		})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(st)
	}

	var matrix *core.Matrix
	needMatrix := *claims || *table != 0
	if needMatrix {
		start := time.Now()
		var err error
		matrix, err = core.RunMatrix(ctx, suite, core.MatrixOptions{
			Seed: *seed, PlaceEffort: *effort, PlaceWorkers: *placeWorkers, Parallel: *parallel,
			ContinueOnError: *keepGoing, Trace: tracer,
			Progress: func(line string) { fmt.Fprintln(os.Stderr, "  "+line) },
		})
		if err != nil {
			printLedger(matrix)
			fatalf("%v", err)
		}
		printLedger(matrix)
		appendMatrixLedger(*ledgerPath, matrix, *seed)
		fmt.Fprintf(os.Stderr, "matrix completed in %s\n\n", time.Since(start).Round(time.Second))
	}
	complete := matrix == nil || len(matrix.Errors) == 0
	if *table == 1 || *table == 3 {
		if complete {
			fmt.Println(matrix.Table1())
		} else {
			fmt.Fprintln(os.Stderr, "paper: table 1 skipped: matrix incomplete (see error ledger)")
		}
	}
	if *table == 2 || *table == 3 {
		if complete {
			fmt.Println(matrix.Table2())
		} else {
			fmt.Fprintln(os.Stderr, "paper: table 2 skipped: matrix incomplete (see error ledger)")
		}
	}
	if *claims {
		if complete {
			fmt.Println(matrix.DeriveClaims())
		} else {
			fmt.Fprintln(os.Stderr, "paper: claims skipped: matrix incomplete (see error ledger)")
		}
	}

	if *compaction {
		fmt.Println("Compaction ablation (E4): gate-area reduction by design and architecture")
		for _, d := range suite.All() {
			for _, arch := range []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()} {
				cfg := core.Config{Arch: arch, Flow: core.FlowA, Seed: *seed, PlaceEffort: *effort,
					PlaceWorkers: *placeWorkers, Trace: tracer.NewRun(d.Name + "/" + arch.Name + "/compaction")}
				rep, _, err := core.RunFlow(ctx, d, cfg)
				cfg.Trace.Close()
				if err != nil {
					fatalf("%v", err)
				}
				fmt.Printf("  %-14s %-13s %6.1f%% reduction (gates %.0f, FA macros %d)\n",
					d.Name, arch.Name, 100*rep.CompactionReduction, rep.GateCount, rep.FullAdders)
			}
		}
		fmt.Println("  (paper reports ~15% average for its DC-mapped netlists)")
		fmt.Println()
	}

	if *domains {
		fir := bench.FIR(8, 8)
		if *scale == "paper" {
			fir = bench.FIR(32, 16)
		}
		results, err := core.RunDomainExplore(ctx,
			[]bench.Design{suite.ALU, suite.Firewire, fir},
			core.DefaultSweepArchs(),
			core.SweepOptions{Seed: *seed, Parallel: *parallel, PlaceWorkers: *placeWorkers, Trace: tracer})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(core.FormatDomains(results))
	}

	if *routing {
		pts, err := core.RunRoutingSweep(ctx, suite.ALU, cells.GranularPLB(), []int{4, 8, 16, 32, 64},
			core.SweepOptions{Seed: *seed, PlaceWorkers: *placeWorkers, Trace: tracer})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(core.FormatRoutingSweep(suite.ALU.Name, pts))
	}

	if *sweep {
		fmt.Println("Granularity sweep (E8): ALU across PLB architectures")
		pts, err := core.RunGranularitySweep(ctx, suite.ALU, core.DefaultSweepArchs(),
			core.SweepOptions{Seed: *seed, Parallel: *parallel, PlaceWorkers: *placeWorkers, Trace: tracer})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("  %-14s %-36s %8s %10s %10s\n", "arch", "slots", "PLB area", "die area", "avg slack")
		for _, p := range pts {
			fmt.Printf("  %-14s %-36s %8.1f %10.0f %10.1f\n", p.Arch, p.Slots, p.PLBArea, p.DieArea, p.AvgTopSlack)
		}
	}

	if *defectRate > 0 {
		fmt.Printf("Defect-yield sweep: ALU on granular-plb, %d maps at rate %.4f\n",
			*defectMaps, *defectRate)
		res, err := core.DefectYield(ctx, suite.ALU, cells.GranularPLB(), core.YieldOptions{
			Rate: *defectRate, Maps: *defectMaps, BaseSeed: *defectSeed,
			FlowSeed: *seed, Parallel: *parallel, Trace: tracer,
			Progress: func(line string) { fmt.Fprintln(os.Stderr, "  "+line) },
		})
		if err != nil {
			fatalf("yield sweep: %v", err)
		}
		fmt.Println(res.Table())
	}
}

// appendMatrixLedger appends one QoR record per populated matrix cell
// to the run ledger. Matrix cells are clock-pinned across flows, not
// request-shaped, so the records carry no cache key.
func appendMatrixLedger(path string, m *core.Matrix, seed int64) {
	if path == "" || m == nil {
		return
	}
	var recs []qor.Record
	for _, archs := range m.Reports {
		for _, flows := range archs {
			for _, rep := range flows {
				if rep != nil {
					recs = append(recs, qor.FromReport(rep, seed, ""))
				}
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID() < recs[j].ID() })
	now := time.Now()
	rev := qor.GitRev(".")
	for i := range recs {
		recs[i].Stamp(now, rev)
	}
	if err := qor.Append(path, recs...); err != nil {
		fmt.Fprintf(os.Stderr, "paper: ledger: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "appended %d QoR record(s) to %s\n", len(recs), path)
}

// printLedger reports failed and skipped matrix cells on stderr.
func printLedger(m *core.Matrix) {
	if m == nil || len(m.Errors) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "error ledger (%d failed/skipped cells):\n", len(m.Errors))
	for _, fe := range m.Errors {
		fmt.Fprintf(os.Stderr, "  %s\n", fe)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "paper: "+format+"\n", args...)
	flushTrace()
	os.Exit(1)
}
