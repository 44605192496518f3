// Command vpgaflow runs one design through the complete VPGA
// implementation flow and prints the resulting report.
//
// Usage:
//
//	vpgaflow -design alu|firewire|fpu|switch -arch granular|lut -flow a|b
//	         [-scale test|paper] [-seed N] [-effort N] [-clock PS]
//	         [-verify] [-skip-compaction] [-trace out.json]
//	vpgaflow -rtl file.v -arch granular -flow b     # custom RTL input
//	vpgaflow -request run.json                      # serialized FlowRequest
//	vpgaflow -print-request [flags]                 # canonical JSON + cache key + stage keys
//	vpgaflow -stage-cache DIR [flags]               # stage-granular build cache
//	vpgaflow qor run|baseline|diff [flags]          # QoR regression observatory
//	vpgaflow cluster top [-addr URL] [-watch]       # live coordinator/fleet view
//
// The qor subcommands drive the regression observatory: `qor run`
// appends gate-matrix records to a JSONL ledger, `qor baseline`
// (re)writes the committed qor/baseline.json, and `qor diff` gates the
// current tree against it, exiting 1 on drift (VPGA_UPDATE_BASELINE=1
// refreshes the baseline instead).
//
// Every invocation runs one core.FlowRequest through core.Run, exactly
// as vpgad would: the flags describe the request, or -request reads it
// from a JSON file ('-' for stdin) — the same document POST /v1/runs
// accepts, so a request can be developed locally and then submitted to
// vpgad unchanged. -print-request skips the run and prints the
// canonical (normalized) encoding of the request plus its
// content-address cache key and per-stage key chain, converting a flag
// invocation into a service request. -floorplan and -netlist keep the
// run's physical artifacts, which a defect-injected run (repaired by
// the supervisor's ladder) does not produce.
//
// -stage-cache DIR opens (or creates) a stage-granular build cache at
// DIR: every stage boundary — mapped netlist, compacted netlist,
// placement, packed array, routing — is stored content-addressed, and
// later runs sharing a key-chain prefix restore it instead of
// recomputing. Reports are bit-identical with or without the cache.
//
// -trace writes a Chrome trace-event JSON of the run (stage spans,
// solver counters, repair attempts; open in chrome://tracing or
// ui.perfetto.dev) and prints a per-stage wall-time summary on stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"vpga/internal/artifact"
	"vpga/internal/core"
	"vpga/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "qor" {
		qorMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "cluster" {
		clusterMain(os.Args[2:])
		return
	}
	design := flag.String("design", "alu", "benchmark: alu, firewire, fpu, switch")
	rtlFile := flag.String("rtl", "", "compile this RTL file instead of a benchmark")
	archName := flag.String("arch", "granular", "PLB architecture: granular or lut")
	flowName := flag.String("flow", "b", "flow a (ASIC, no packing) or b (full PLB array)")
	scale := flag.String("scale", "test", "benchmark scale: test or paper")
	seed := flag.Int64("seed", 1, "random seed")
	effort := flag.Int("effort", 6, "placement effort (moves per object per temperature)")
	clock := flag.Float64("clock", 0, "clock period in ps (0 = auto: 1.2x pre-layout arrival)")
	verify := flag.Bool("verify", false, "check implementation equivalence by random simulation")
	skipCompact := flag.Bool("skip-compaction", false, "disable regularity-driven compaction (ablation)")
	floorplan := flag.String("floorplan", "", "write the packed-array floorplan (flow b) to this file ('-' for stdout)")
	netlistOut := flag.String("netlist", "", "write the implementation as structural Verilog to this file")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none)")
	defectRate := flag.Float64("defect-rate", 0, "inject a defect map at this rate per fabric tile (runs the repair ladder)")
	defectSeed := flag.Int64("defect-seed", 100, "defect-map seed")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file and a per-stage summary to stderr")
	requestFile := flag.String("request", "", "run a serialized core.FlowRequest from this JSON file ('-' for stdin) instead of the flow flags")
	printRequest := flag.Bool("print-request", false, "print the request's canonical JSON, cache key and stage keys instead of running it")
	stageDir := flag.String("stage-cache", "", "stage-granular build cache directory (created if absent); runs restore cached stage artifacts and store fresh ones")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var stages *core.StageCache
	if *stageDir != "" {
		store, err := artifact.Open(*stageDir)
		if err != nil {
			fatalf("stage cache: %v", err)
		}
		stages = core.NewStageCache(store)
	}

	var req core.FlowRequest
	if *requestFile != "" {
		req = readRequest(*requestFile)
	} else {
		req = core.FlowRequest{
			Design: *design, Scale: *scale,
			Arch: core.ArchSpec{Kind: *archName}, Flow: *flowName,
			Seed: *seed, ClockPeriod: *clock, PlaceEffort: *effort,
			SkipCompaction: *skipCompact, Verify: *verify,
			DefectRate: *defectRate,
		}
		if *rtlFile != "" {
			src, err := os.ReadFile(*rtlFile)
			if err != nil {
				fatalf("%v", err)
			}
			req.Design = ""
			req.RTL, req.Name = string(src), *rtlFile
		}
		if *defectRate > 0 {
			req.DefectSeed = *defectSeed
		}
	}
	if *printRequest {
		key, err := req.CacheKey()
		if err != nil {
			fatalf("%v", err)
		}
		keys, err := req.StageKeys()
		if err != nil {
			fatalf("%v", err)
		}
		enc, err := json.MarshalIndent(req.Normalize(), "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		// Canonical JSON on stdout; derived keys on stderr, so the
		// stdout document stays a valid request body.
		fmt.Printf("%s\n", enc)
		fmt.Fprintf(os.Stderr, "cache key: %s\n", key)
		for _, sk := range keys {
			fmt.Fprintf(os.Stderr, "stage %-8s %s\n", sk.Stage, sk.Key)
		}
		return
	}

	wantArtifacts := *floorplan != "" || *netlistOut != ""
	res := runRequest(ctx, req, *traceFile, stages, wantArtifacts)
	art := res.Artifacts
	if wantArtifacts && art == nil {
		fatalf("-floorplan/-netlist are unavailable with a defect map: repaired runs report without artifacts")
	}
	printReport(res.Report)
	if *netlistOut != "" {
		f, err := os.Create(*netlistOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := art.Impl.WriteVerilog(f); err != nil {
			fatalf("%v", err)
		}
		f.Close()
	}
	if *floorplan != "" {
		out := os.Stdout
		if *floorplan != "-" {
			f, err := os.Create(*floorplan)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			out = f
		}
		if err := core.WriteFloorplan(out, res.Report, art); err != nil {
			fatalf("%v", err)
		}
	}
}

// readRequest loads a serialized FlowRequest ('-' = stdin), strictly:
// unknown fields are rejected, like the service endpoint does.
func readRequest(path string) core.FlowRequest {
	var src io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		src = f
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	var req core.FlowRequest
	if err := dec.Decode(&req); err != nil {
		fatalf("request %s: %v", path, err)
	}
	return req
}

// runRequest executes a FlowRequest exactly as vpgad would, keeping
// the physical artifacts when asked; -trace writes the run's Chrome
// trace and prints its per-stage summary on stderr.
func runRequest(ctx context.Context, req core.FlowRequest, traceFile string, stages *core.StageCache, wantArtifacts bool) *core.RunResult {
	var tracer *obs.Tracer
	var run *obs.Run
	if traceFile != "" {
		tracer = obs.NewTracer()
		run = tracer.NewRun(req.TicketLabel())
	}
	res, err := core.Run(ctx, req, core.ExecOptions{Trace: run, Stages: stages, WantArtifacts: wantArtifacts})
	run.Close()
	if tracer != nil {
		if werr := tracer.WriteChromeTraceFile(traceFile); werr != nil {
			fatalf("trace: %v", werr)
		}
		fmt.Fprint(os.Stderr, tracer.SummaryTable())
		fmt.Fprintf(os.Stderr, "trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", traceFile)
	}
	if err != nil {
		fatalf("%v", err)
	}
	return res
}

func printReport(r *core.Report) {
	fmt.Printf("design:         %s\n", r.Design)
	fmt.Printf("architecture:   %s\n", r.Arch)
	fmt.Printf("flow:           %s\n", r.Flow)
	fmt.Printf("gate count:     %.0f NAND2 equivalents\n", r.GateCount)
	if r.DefectSummary != "" {
		fmt.Printf("defect map:     %s\n", r.DefectSummary)
		fmt.Printf("repair:         %d escalation(s) over %d attempt(s)\n", r.Escalations, len(r.Attempts))
		for _, a := range r.Attempts {
			status := "ok"
			if a.Err != "" {
				status = a.Err
			}
			fmt.Printf("  attempt %d (%s, seed %d): %s\n", a.Attempt, a.Action, a.Seed, status)
		}
	}
	if r.CompactionReduction > 0 {
		fmt.Printf("compaction:     %.1f%% gate-area reduction, %d full adders extracted\n",
			100*r.CompactionReduction, r.FullAdders)
	}
	fmt.Printf("die area:       %.0f\n", r.DieArea)
	if r.Rows > 0 {
		fmt.Printf("PLB array:      %d x %d (%.0f%% utilized, perturbation %.2f pitches)\n",
			r.Rows, r.Cols, 100*r.Utilization, r.Perturbation)
		fmt.Printf("vias:           %d populated (%d potential sites per PLB, %.1f%% of fabric sites)\n",
			r.PopulatedVias, r.ViaSitesPerPLB,
			100*float64(r.PopulatedVias)/float64(r.ViaSitesPerPLB*r.Rows*r.Cols))
	}
	fmt.Printf("wirelength:     %.0f (overflow %d)\n", r.Wirelength, r.Overflow)
	fmt.Printf("clock period:   %.0f ps\n", r.ClockPeriod)
	fmt.Printf("slack (top10):  %.1f ps avg, %.1f ps worst\n", r.AvgTopSlack, r.WorstSlack)
	fmt.Printf("max arrival:    %.1f ps\n", r.MaxArrival)
	fmt.Printf("power:          %.1f uW at this clock\n", r.PowerUW)
	if len(r.ConfigCounts) > 0 {
		fmt.Printf("configurations:")
		for _, k := range sortedKeys(r.ConfigCounts) {
			fmt.Printf(" %s=%d", k, r.ConfigCounts[k])
		}
		fmt.Println()
	}
	if len(r.StageCache) > 0 {
		fmt.Printf("stage cache:   ")
		for _, u := range r.StageCache {
			verdict := "miss"
			if u.Hit {
				verdict = "hit"
			}
			fmt.Printf(" %s=%s", u.Stage, verdict)
		}
		fmt.Println()
	}
	fmt.Printf("runtime:        %s\n", r.Runtime.Round(1000000))
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vpgaflow: "+format+"\n", args...)
	os.Exit(1)
}
