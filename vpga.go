// Package vpga is the public API of the VPGA CAD system, a
// from-scratch reproduction of "Exploring Logic Block Granularity for
// Regular Fabrics" (Koorapaty et al., DATE 2004).
//
// A Via-Patterned Gate Array (VPGA) is a regular fabric: an array of
// patternable logic blocks (PLBs) customized by via placement, with
// ASIC-style routing on the metal layers above the array. This package
// exposes the complete implementation flow of the paper's Figure 6 —
//
//	RTL → synthesis (AIG) → technology mapping → regularity-driven
//	compaction → placement → packing into the PLB array → routing →
//	post-layout static timing
//
// — together with the two PLB architectures under comparison (the
// LUT-based PLB of Fig. 1 and the granular PLB of Fig. 4), the
// Section 2.1 function-class analysis, the four benchmark generators,
// and the experiment drivers that regenerate Tables 1–2.
//
// Quick start:
//
//	report, err := vpga.Run(ctx, vpga.ALU(16), vpga.Config{
//	    Arch: vpga.GranularPLB(),
//	    Flow: vpga.FlowB,
//	})
//
// For serialization — scripted runs, the vpgad service, the
// content-addressed report cache — describe the run declaratively
// instead and let Execute resolve it under the flow supervisor:
//
//	res, err := vpga.Execute(ctx, vpga.FlowRequest{
//	    Design: "alu",
//	    Arch:   vpga.ArchSpec{Kind: "granular"},
//	    Seed:   7,
//	}, vpga.ExecOptions{})
//
// ExampleRun and ExampleExecute hold both forms as compiled examples;
// see examples/ for runnable programs and DESIGN.md for the system
// inventory.
package vpga

import (
	"context"
	"io"

	"vpga/internal/artifact"
	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/core"
	"vpga/internal/defect"
	"vpga/internal/logic"
	"vpga/internal/netlist"
	"vpga/internal/obs"
	"vpga/internal/rtl"
)

// Design is a named RTL benchmark.
type Design = bench.Design

// PLBArch describes a patternable-logic-block architecture.
type PLBArch = cells.PLBArch

// PLBConfig is one logic configuration of Section 2.3 (MX, ND3, NDMX,
// XOAMX, XOANDMX, LUT, FA, FF).
type PLBConfig = cells.Config

// Config parameterizes one flow run: architecture, flow kind, seed,
// effort, defect map, tracing. It is the resolved, in-memory form; the
// serializable counterpart is FlowRequest.
type Config = core.Config

// Report carries every figure of merit from a flow run.
type Report = core.Report

// FlowKind selects the paper's flow a (ASIC-style, no packing) or
// flow b (full flow with PLB-array packing).
type FlowKind = core.FlowKind

// Flow selectors.
const (
	FlowA = core.FlowA
	FlowB = core.FlowB
)

// Netlist is the gate-level intermediate representation.
type Netlist = netlist.Netlist

// GranularPLB returns the paper's Figure 4 architecture: two 2:1
// MUXes, the XOA MUX, one ND3WI gate and a flip-flop.
func GranularPLB() *PLBArch { return cells.GranularPLB() }

// LUTPLB returns the Figure 1 baseline: one 3-LUT, two ND3WI gates
// and a flip-flop.
func LUTPLB() *PLBArch { return cells.LUTPLB() }

// CustomPLB builds a parameterized architecture for granularity
// exploration: nMux 2:1 MUXes, nXoa XOA MUXes, nNand ND3WI gates,
// nLut 3-LUTs and nFF flip-flops.
func CustomPLB(name string, nMux, nXoa, nNand, nLut, nFF int) *PLBArch {
	return cells.CustomPLB(name, nMux, nXoa, nNand, nLut, nFF)
}

// Run pushes one design through the implementation flow on a resolved
// Config. It runs without the flow supervisor: a panic is not
// isolated, and a defect map in cfg is applied without the repair
// ladder (see RunRepair and Execute). The context cancels the run at
// stage and iteration boundaries; pass context.Background() when no
// cancellation is needed.
func Run(ctx context.Context, d Design, cfg Config) (*Report, error) {
	rep, _, err := core.RunFlow(ctx, d, cfg)
	return rep, err
}

// FlowRequest is the canonical, JSON-serializable description of one
// flow run: a named benchmark or inline RTL, an ArchSpec, the flow
// kind, the seed and every other result-bearing knob. Its normalized
// canonical encoding content-addresses the vpgad report cache
// (FlowRequest.CacheKey); two requests that mean the same run share
// one key regardless of JSON field order or omitted defaults.
type FlowRequest = core.FlowRequest

// ArchSpec is the serializable counterpart of a PLBArch: kind
// "granular", "lut", or "custom" with slot counts.
type ArchSpec = core.ArchSpec

// ExecOptions carries the execution-only knobs of a request run —
// tracing, the stage-granular build cache, artifact retention. None of
// them change the report's bytes.
type ExecOptions = core.ExecOptions

// RunResult is Execute's return value: the report, the request's
// per-stage key chain, and (when ExecOptions.WantArtifacts is set) the
// physical artifacts.
type RunResult = core.RunResult

// Execute is the unified pipeline entry point: it resolves a
// FlowRequest and runs it under the flow supervisor — panic isolation,
// and the repair ladder for a defect-injecting request — with the
// given execution options. Run and RunFull run the same staged
// pipeline on an already-resolved Config, without the supervisor.
func Execute(ctx context.Context, req FlowRequest, opts ExecOptions) (*RunResult, error) {
	return core.Run(ctx, req, opts)
}

// Stage-granular build cache.

// StageKey is one link of a request's per-stage key chain: a pipeline
// stage name and the content address its boundary artifact lives
// under. Compare two requests' chains (FlowRequest.StageKeys) to
// predict how deep a cached prefix one can restore from the other.
type StageKey = core.StageKey

// StageUse records how one executed stage was satisfied: restored from
// the stage cache or computed (Report.StageCache).
type StageUse = core.StageUse

// StageCache is the stage-granular build cache: per-stage artifacts in
// a content-addressed store plus hit/miss counters. Attach one to
// Config.Stages or ExecOptions.Stages; a nil cache is valid and
// records nothing. Reports are bit-identical with or without it.
type StageCache = core.StageCache

// StageCacheStats maps stage name to cache counters.
type StageCacheStats = core.StageCacheStats

// StageCounts is one stage's hit/miss counters.
type StageCounts = core.StageCounts

// OpenStageCache opens (creating if absent) a stage-granular build
// cache rooted at dir.
func OpenStageCache(dir string) (*StageCache, error) {
	store, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	return core.NewStageCache(store), nil
}

// Compile parses and elaborates RTL source (the dialect documented in
// internal/rtl) into a gate-level netlist.
func Compile(src string) (*Netlist, error) { return rtl.Compile(src) }

// Benchmark generators (the paper's Table 1/2 designs).

// ALU returns a registered W-bit arithmetic-logic unit.
func ALU(width int) Design { return bench.ALU(width) }

// FPU returns a floating-point add/multiply datapath with an M-bit
// mantissa (M = 24 approximates the paper's ≈24k-gate FPU).
func FPU(mantissa int) Design { return bench.FPU(mantissa) }

// Switch returns a P-port, W-bit, depth-D network switch (12×32×4
// approximates the paper's ≈80k-gate design).
func Switch(ports, width, depth int) Design { return bench.Switch(ports, width, depth) }

// Firewire returns the control/sequential-dominated link controller.
func Firewire(nregs int) Design { return bench.Firewire(nregs) }

// Suite bundles the four benchmarks.
type Suite = bench.Suite

// PaperSuite returns the four designs at paper-equivalent sizes.
func PaperSuite() Suite { return bench.PaperSuite() }

// TestSuite returns miniature versions for fast experimentation.
func TestSuite() Suite { return bench.TestSuite() }

// Experiments.

// Matrix is the 4-design × 2-architecture × 2-flow experiment of
// Tables 1 and 2.
type Matrix = core.Matrix

// MatrixOptions configures RunMatrix.
type MatrixOptions = core.MatrixOptions

// FlowError is the structured failure record of one flow run.
type FlowError = core.FlowError

// AttemptRecord documents one rung of the repair ladder.
type AttemptRecord = core.AttemptRecord

// RunMatrix executes the full Table 1/2 experiment under the flow
// supervisor: worker panics, per-run timeouts and unroutable defect
// maps become entries in the matrix's error ledger instead of crashes.
func RunMatrix(ctx context.Context, s Suite, opts MatrixOptions) (*Matrix, error) {
	return core.RunMatrix(ctx, s, opts)
}

// Claims holds the derived Section 3.2 statistics.
type Claims = core.Claims

// Fig2Text renders the Section 2.1 / Figure 2 function-class analysis.
func Fig2Text() string { return core.Fig2Text() }

// SweepPoint is one granularity-sweep sample.
type SweepPoint = core.SweepPoint

// SweepOptions configures the exploration sweeps: the flow seed, the
// parallel worker width (0 = all cores; results are bit-identical at
// any width) and an optional Tracer.
type SweepOptions = core.SweepOptions

// RunGranularitySweep runs a design across a family of PLB
// architectures.
func RunGranularitySweep(ctx context.Context, d Design, archs []*PLBArch, opts SweepOptions) ([]SweepPoint, error) {
	return core.RunGranularitySweep(ctx, d, archs, opts)
}

// DefaultSweepArchs returns the standard granularity family.
func DefaultSweepArchs() []*PLBArch { return core.DefaultSweepArchs() }

// Logic analysis (Section 2.1).

// TT is a truth table of up to six inputs.
type TT = logic.TT

// S3Feasible reports whether the S3 gate (a 2:1 MUX driven by two
// ND2WI gates) implements the 3-input function f.
func S3Feasible(f TT) bool { return logic.S3Feasible(f) }

// S3FeasibleCount counts S3-implementable 3-input functions (the
// paper's "at least 196").
func S3FeasibleCount() int { return logic.S3FeasibleCount() }

// ModifiedS3Complete reports whether the Figure 3 modified S3 cell
// implements all 256 3-input functions.
func ModifiedS3Complete() bool { return logic.ModifiedS3Complete() }

// FIR returns a T-tap, W-bit FIR filter benchmark — a DSP-domain
// design for application-domain exploration beyond the paper's four.
func FIR(taps, width int) Design { return bench.FIR(taps, width) }

// ClaimStats aggregates the derived claims over several seeds.
type ClaimStats = core.ClaimStats

// StabilityOptions configures RunStabilityStudy: placement effort,
// parallel width, a per-matrix progress callback and an optional
// Tracer.
type StabilityOptions = core.StabilityOptions

// RunStabilityStudy runs the Table 1/2 matrix once per seed and
// reports mean/min/max of every headline claim. Results are
// seed-deterministic at any parallel width.
func RunStabilityStudy(ctx context.Context, s Suite, seeds []int64, opts StabilityOptions) (*ClaimStats, error) {
	return core.RunStabilityStudy(ctx, s, seeds, opts)
}

// DomainResult reports per-domain architecture comparisons.
type DomainResult = core.DomainResult

// RunDomainExplore finds the best PLB architecture per application
// domain (the paper's Sec. 4 future work).
func RunDomainExplore(ctx context.Context, domains []Design, archs []*PLBArch, opts SweepOptions) ([]DomainResult, error) {
	return core.RunDomainExplore(ctx, domains, archs, opts)
}

// RoutingPoint is one sample of the routing-architecture sweep.
type RoutingPoint = core.RoutingPoint

// RunRoutingSweep routes a packed design under several per-channel
// track capacities (the paper's routing-architecture future work).
func RunRoutingSweep(ctx context.Context, d Design, arch *PLBArch, capacities []int, opts SweepOptions) ([]RoutingPoint, error) {
	return core.RunRoutingSweep(ctx, d, arch, capacities, opts)
}

// Defect-aware fabric (yield experiments).

// DefectMap is a seeded map of fabric defects: stuck PLB sites, dead
// routing tracks and via faults, in normalized coordinates so one map
// applies to any die size.
type DefectMap = defect.Map

// NewDefectMap samples a defect map at the given rate per fabric tile.
func NewDefectMap(seed int64, rate float64) *DefectMap { return defect.New(seed, rate) }

// RunRepair runs the flow with the bounded-escalation repair loop
// (reseed, widen channels, relax clock) — see Config.Defects and
// Config.RepairBudget.
func RunRepair(ctx context.Context, d Design, cfg Config) (*Report, error) {
	return core.RunFlowRepair(ctx, d, cfg)
}

// YieldResult aggregates a defect-yield sweep.
type YieldResult = core.YieldResult

// YieldOptions configures DefectYield.
type YieldOptions = core.YieldOptions

// DefectYield runs one (design, arch) flow across many independent
// defect maps through the repair ladder and reports fabric yield per
// escalation depth.
func DefectYield(ctx context.Context, d Design, arch *PLBArch, opts YieldOptions) (*YieldResult, error) {
	return core.DefectYield(ctx, d, arch, opts)
}

// Observability.

// Tracer collects flow traces: per-stage wall-time spans, solver
// counters (annealer passes, router negotiation iterations) and repair
// attempts, across any number of concurrent runs. Attach one to
// MatrixOptions.Trace or YieldOptions.Trace, or create per-run handles
// with NewRun for Config.Trace. A nil Tracer (and a nil run handle) is
// valid everywhere and records nothing.
type Tracer = obs.Tracer

// TraceRun is the per-flow-run trace handle carried by Config.Trace.
type TraceRun = obs.Run

// StageTiming is an aggregated per-stage wall-time entry of a traced
// run (Report.Stages, Matrix.StageTotals).
type StageTiming = obs.StageTiming

// SolverMetrics carries the solver counters of a traced run
// (Report.Solver).
type SolverMetrics = obs.SolverMetrics

// NewTracer returns an empty Tracer ready for concurrent use.
func NewTracer() *Tracer { return obs.NewTracer() }

// Artifacts carries the physical results (netlist, placement, packing,
// routing) of a flow run for tools needing more than the report.
type Artifacts = core.Artifacts

// RunFull is Run returning the physical artifacts as well.
func RunFull(ctx context.Context, d Design, cfg Config) (*Report, *Artifacts, error) {
	return core.RunFlow(ctx, d, cfg)
}

// WriteFloorplan renders a flow-b result as a textual floorplan: array
// occupancy, per-PLB configuration inventory with via programs, and
// routing totals (the GDSII stand-in).
func WriteFloorplan(w io.Writer, rep *Report, art *Artifacts) error {
	return core.WriteFloorplan(w, rep, art)
}
