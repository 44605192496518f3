package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/defect"
	"vpga/internal/logic"
	"vpga/internal/obs"
	"vpga/internal/route"
)

// Matrix holds the full 4-design × 2-architecture × 2-flow experiment
// of Tables 1 and 2.
type Matrix struct {
	Designs []bench.Design
	// Reports[design][arch][flow]. Cells whose run failed (or was
	// skipped because its clock-pinning run failed) stay nil; the
	// failure itself is in Errors.
	Reports map[string]map[string]map[string]*Report
	// Errors is the ledger of failed and skipped runs, sorted by
	// (design, arch, flow) so it is deterministic at any parallelism.
	Errors []*FlowError
}

// MatrixOptions configures a matrix run.
type MatrixOptions struct {
	Seed        int64
	PlaceEffort int
	// Stages, when set, is the stage-granular build cache every cell
	// runs against (see Config.Stages): cells sharing a key-chain
	// prefix — every clock-pinned variant of one (design, arch), both
	// flows of one placement — compute it once. When nil, each
	// (design, arch) runs against an in-memory tier of its own that
	// keeps only the compacted netlist and placement, so flow b still
	// restores flow a's. Pure acceleration: reports are bit-identical
	// with or without it.
	Stages *StageCache
	// Parallel bounds the number of concurrently executing flow runs:
	// 0 uses GOMAXPROCS, 1 forces fully sequential execution. For a
	// fixed seed the resulting reports are identical at any setting —
	// every run's inputs (design, arch, flow, pinned clock, seed) are
	// independent of scheduling.
	Parallel int
	// Progress, when non-nil, receives one line per completed run.
	// Calls are serialized and delivered in canonical (design, arch,
	// flow) order at any Parallel setting, so progress output is
	// deterministic; a cell's line may therefore buffer briefly while
	// an earlier cell is still running.
	Progress func(string)
	// ContinueOnError keeps the matrix going past failing cells: the
	// failures land in Matrix.Errors (the dependents of a failed
	// clock-pinning run as Stage "skipped") and the matrix comes back
	// partially populated with a nil error. Without it the matrix
	// aborts — cells that sort after a recorded failure are skipped —
	// and returns the lowest (design, arch, flow) failure, which always
	// runs, so the error is the same at any Parallel setting.
	ContinueOnError bool
	// Defects injects a fabric defect map into every run. Defective
	// runs go through the bounded repair ladder (RunFlowRepair).
	Defects *defect.Map
	// RepairBudget caps repair escalations (0 = DefaultRepairBudget).
	RepairBudget int
	// Trace, when set, records every run's stage spans and solver
	// counters; runs map onto tracer worker rows as pool slots free up,
	// so the exported Chrome trace has one row per worker. Tracing
	// never changes reports (see Report.StripMetrics).
	Trace *obs.Tracer
}

// testPanicHook, when set by a test, is called at the top of every
// supervised run and may panic to exercise worker panic isolation.
var testPanicHook func(design, arch string, flow FlowKind)

// supervisedRun executes one flow run under the supervisor: panic
// isolation (a crashed worker becomes a *FlowError with Stage "panic"
// instead of taking down the process), and the repair ladder when a
// defect map is present. The repair ladder reports without artifacts.
func supervisedRun(ctx context.Context, d bench.Design, cfg Config) (rep *Report, art *Artifacts, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, art = nil, nil
			err = &FlowError{Design: d.Name, Arch: cfg.Arch.Name, Flow: cfg.Flow.String(),
				Stage: "panic", Err: fmt.Errorf("%v\n%s", r, debug.Stack())}
		}
	}()
	if testPanicHook != nil {
		testPanicHook(d.Name, cfg.Arch.Name, cfg.Flow)
	}
	if cfg.Defects != nil {
		rep, err = RunFlowRepair(ctx, d, cfg)
		return rep, nil, err
	}
	return RunFlow(ctx, d, cfg)
}

// RunMatrix executes every (design, arch, flow) combination of the
// suite through ExecuteMatrix, which owns the cross-cell rules (the
// pinned clock per design, the ledger, abort and progress order), on a
// bounded pool of local lanes under the flow supervisor.
//
// Each (design, arch) anneals once. Its two cells form a chain that
// holds one pool slot: flow b starts right after flow a and restores
// that run's compacted netlist and placement from the stage cache —
// opts.Stages, or else an in-memory tier of the chain's own, dropped
// when the chain ends. Designs run concurrently; within a design the
// clock-pinning run (granular / flow a) heads the granular chain, and
// the lut chain queues as soon as it finishes. A freed slot goes to the
// heaviest queued chain: pins first, since the rest of their design
// waits on them, then the chain whose pin ran longest, so the longest
// anneal left does not end the matrix alone on one core. A failed flow
// a does not skip its flow b, which then computes the placement itself.
//
// Failures never crash or hang the pool: a panicking worker, a timed
// out run, or an unroutable defect map becomes a *FlowError in the
// returned matrix's ledger. With opts.ContinueOnError the remaining
// cells still run and the partially-populated matrix is returned with
// a nil error; otherwise RunMatrix returns the partial matrix together
// with the lowest (design, arch, flow) failure — the same one at any
// Parallel setting. Cancelling ctx stops the matrix at the next
// iteration boundary of every in-flight run.
func RunMatrix(ctx context.Context, suite bench.Suite, opts MatrixOptions) (*Matrix, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	par := opts.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	designs := suite.All()
	archs := []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()}
	// All cells share one router-state pool: the grids are similarly
	// shaped, so after warm-up each run checks out ready-sized scratch
	// instead of allocating it. Reuse never changes reports.
	pool := route.NewPool()
	slots := newGate(par)
	lane := func(weight float64, body func(run CellFunc)) {
		slots.acquire(weight)
		defer slots.release()
		// No other chain shares this one's keys, so without opts.Stages
		// its tier lives only while the lane holds its slot: live tiers
		// never outnumber the slots, however long a lane waits.
		stages := opts.Stages
		if stages == nil {
			stages = newMemStageCache()
		}
		body(func(c Cell) (*Report, error) {
			d, arch := designs[c.Design], archs[c.Arch]
			cfg := Config{
				Arch: arch, Flow: c.Flow, ClockPeriod: c.Clock,
				Seed: opts.Seed, PlaceEffort: opts.PlaceEffort,
				Defects: opts.Defects, RepairBudget: opts.RepairBudget,
				Stages: stages, routePool: pool,
				Trace: opts.Trace.NewRun(d.Name + "/" + arch.Name + "/" + c.Flow.String()),
			}
			defer cfg.Trace.Close()
			rep, _, err := supervisedRun(ctx, d, cfg)
			return rep, err
		})
	}
	return ExecuteMatrix(ctx, designs, CellRunner{Lane: lane, Chain: true}, opts.ContinueOnError, opts.Progress)
}

// Get returns one report.
func (m *Matrix) Get(design, arch string, flow FlowKind) *Report {
	return m.Reports[design][arch][flow.String()]
}

// StripMetrics applies Report.StripMetrics to every populated cell, so
// matrices from different worker counts or tracing settings compare
// bit-identical.
func (m *Matrix) StripMetrics() {
	for _, byArch := range m.Reports {
		for _, byFlow := range byArch {
			for _, rep := range byFlow {
				rep.StripMetrics()
			}
		}
	}
}

// Table1 renders the die-area comparison in the layout of the paper's
// Table 1.
func (m *Matrix) Table1() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: Area comparison (die area, NAND2-equivalent units)\n")
	fmt.Fprintf(&sb, "%-16s %12s %12s %12s %12s\n", "", "Granular PLB", "", "LUT PLB", "")
	fmt.Fprintf(&sb, "%-16s %12s %12s %12s %12s\n", "Design", "flow a", "flow b", "flow a", "flow b")
	for _, d := range m.Designs {
		g := m.Reports[d.Name]["granular-plb"]
		l := m.Reports[d.Name]["lut-plb"]
		fmt.Fprintf(&sb, "%-16s %12.0f %12.0f %12.0f %12.0f\n", d.Name,
			g["flow a"].DieArea, g["flow b"].DieArea,
			l["flow a"].DieArea, l["flow b"].DieArea)
	}
	return sb.String()
}

// Table2 renders the timing comparison in the layout of the paper's
// Table 2 (average slack over the top-10 critical paths, ps).
func (m *Matrix) Table2() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: Timing comparison (avg slack over paths 1-10, ps)\n")
	fmt.Fprintf(&sb, "%-16s %10s %12s %12s %12s %12s %10s\n",
		"Design", "gates", "gran flow a", "gran flow b", "lut flow a", "lut flow b", "clock")
	for _, d := range m.Designs {
		g := m.Reports[d.Name]["granular-plb"]
		l := m.Reports[d.Name]["lut-plb"]
		fmt.Fprintf(&sb, "%-16s %10.0f %12.1f %12.1f %12.1f %12.1f %10.0f\n", d.Name,
			l["flow b"].GateCount,
			g["flow a"].AvgTopSlack, g["flow b"].AvgTopSlack,
			l["flow a"].AvgTopSlack, l["flow b"].AvgTopSlack,
			g["flow b"].ClockPeriod)
	}
	return sb.String()
}

// Claims holds the derived Section 3.2 statistics.
type Claims struct {
	// AvgDatapathDieReduction: average die-area reduction of flow b on
	// the three datapath designs, granular vs LUT (paper: ~32%).
	AvgDatapathDieReduction float64
	// MaxDatapathDieReduction and the design achieving it (paper: FPU,
	// ~40%).
	MaxDatapathDieReduction float64
	MaxDieReductionDesign   string
	// AvgPackingOverheadReduction: how much smaller the flow a→b area
	// overhead is with the granular PLB (paper: 48.37% average).
	AvgPackingOverheadReduction float64
	MaxPackingOverheadReduction float64
	MaxPackingOverheadDesign    string
	// AvgSlackImprovement on flow b, granular vs LUT, over all designs
	// (paper: ~18% average, FPU ~40%).
	AvgSlackImprovement float64
	MaxSlackImprovement float64
	MaxSlackDesign      string
	// AvgPerfDegradationReduction: how much less slack is lost going
	// from flow a to flow b with the granular PLB (paper: ~68%).
	AvgPerfDegradationReduction float64
	// FirewireAreaRatio is granular/LUT die area on the
	// sequential-dominated design (paper: > 1, a regression).
	FirewireAreaRatio float64
}

// DeriveClaims computes the Section 3.2 statistics from a matrix.
func (m *Matrix) DeriveClaims() Claims {
	var c Claims
	nDatapath := 0
	nOverhead := 0
	nSlack := 0
	nDeg := 0
	for _, d := range m.Designs {
		g := m.Reports[d.Name]["granular-plb"]
		l := m.Reports[d.Name]["lut-plb"]
		gb, ga := g["flow b"], g["flow a"]
		lb, la := l["flow b"], l["flow a"]

		if d.Datapath {
			red := 1 - gb.DieArea/lb.DieArea
			c.AvgDatapathDieReduction += red
			nDatapath++
			if red > c.MaxDatapathDieReduction {
				c.MaxDatapathDieReduction = red
				c.MaxDieReductionDesign = d.Name
			}
		} else {
			c.FirewireAreaRatio = gb.DieArea / lb.DieArea
		}

		// Packing overhead: flow b area over flow a area, per arch. The
		// relative-reduction metric is ill-conditioned when the baseline
		// overhead is near zero, so only designs where the LUT flow pays
		// a material overhead participate.
		ovG := gb.DieArea/ga.DieArea - 1
		ovL := lb.DieArea/la.DieArea - 1
		if ovL > 0.15 && d.Datapath {
			red := 1 - ovG/ovL
			c.AvgPackingOverheadReduction += red
			nOverhead++
			if red > c.MaxPackingOverheadReduction {
				c.MaxPackingOverheadReduction = red
				c.MaxPackingOverheadDesign = d.Name
			}
		}

		// Slack improvement on the full flow, normalized by the design's
		// clock period so negative baselines stay interpretable.
		if gb.ClockPeriod > 0 {
			impr := (gb.AvgTopSlack - lb.AvgTopSlack) / gb.ClockPeriod
			c.AvgSlackImprovement += impr
			nSlack++
			if impr > c.MaxSlackImprovement {
				c.MaxSlackImprovement = impr
				c.MaxSlackDesign = d.Name
			}
		}

		// Performance degradation from flow a to flow b.
		degG := ga.AvgTopSlack - gb.AvgTopSlack
		degL := la.AvgTopSlack - lb.AvgTopSlack
		if degL > 0.5 {
			c.AvgPerfDegradationReduction += 1 - degG/degL
			nDeg++
		}
	}
	if nDatapath > 0 {
		c.AvgDatapathDieReduction /= float64(nDatapath)
	}
	if nOverhead > 0 {
		c.AvgPackingOverheadReduction /= float64(nOverhead)
	}
	if nSlack > 0 {
		c.AvgSlackImprovement /= float64(nSlack)
	}
	if nDeg > 0 {
		c.AvgPerfDegradationReduction /= float64(nDeg)
	}
	return c
}

// String renders the claims against the paper's numbers.
func (c Claims) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Derived Section 3.2 claims (measured vs paper):\n")
	fmt.Fprintf(&sb, "  datapath die-area reduction (avg): %6.1f%%   (paper ~32%%)\n", 100*c.AvgDatapathDieReduction)
	fmt.Fprintf(&sb, "  datapath die-area reduction (max): %6.1f%%   on %s (paper: FPU ~40%%)\n", 100*c.MaxDatapathDieReduction, c.MaxDieReductionDesign)
	fmt.Fprintf(&sb, "  packing-overhead reduction (avg):  %6.1f%%   (paper 48.37%%)\n", 100*c.AvgPackingOverheadReduction)
	fmt.Fprintf(&sb, "  packing-overhead reduction (max):  %6.1f%%   on %s (paper: Network Switch 88.6%%)\n", 100*c.MaxPackingOverheadReduction, c.MaxPackingOverheadDesign)
	fmt.Fprintf(&sb, "  slack improvement (avg):           %6.1f%%   of the clock period (paper ~18%% of slack)\n", 100*c.AvgSlackImprovement)
	fmt.Fprintf(&sb, "  slack improvement (max):           %6.1f%%   on %s (paper: FPU ~40%%)\n", 100*c.MaxSlackImprovement, c.MaxSlackDesign)
	fmt.Fprintf(&sb, "  perf-degradation reduction (avg):  %6.1f%%   (paper ~68%%)\n", 100*c.AvgPerfDegradationReduction)
	fmt.Fprintf(&sb, "  Firewire die-area ratio gran/LUT:  %6.2f    (paper > 1: granular loses)\n", c.FirewireAreaRatio)
	return sb.String()
}

// Fig2Text renders the Figure 2 / Section 2.1 function analysis.
func Fig2Text() string {
	rep := logic.AnalyzeFig2()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 2.1 / Figure 2: 3-input function analysis\n")
	fmt.Fprintf(&sb, "  S3 gate (MUX + 2×ND2WI), fixed select:   %d/256 implementable (paper: \"at least 196\")\n", rep.PerSelectFeasible[0])
	fmt.Fprintf(&sb, "  S3 gate, free select choice:             %d/256 implementable\n", rep.Feasible)
	fmt.Fprintf(&sb, "  globally infeasible functions by Figure 2 category:\n")
	for _, cat := range []logic.S3Category{logic.S3CatND2XOR, logic.S3CatND2XNOR,
		logic.S3CatXOR2, logic.S3CatXNOR2, logic.S3CatXOR3} {
		fmt.Fprintf(&sb, "    %-45s %d\n", cat.String()+":", rep.InfeasibleByCategory[cat])
	}
	fmt.Fprintf(&sb, "  modified S3 cell (Figure 3) complete:    %v (implements all 256)\n", logic.ModifiedS3Complete())
	return sb.String()
}

// SweepPoint is one granularity-sweep sample (experiment E8).
type SweepPoint struct {
	Arch        string
	Slots       string
	PLBArea     float64
	DieArea     float64
	AvgTopSlack float64
	UsedPLBs    int
}

// SweepOptions parameterizes the exploration drivers (granularity and
// routing sweeps, domain exploration). It replaces their former
// positional seed arguments: one struct carries the seed, the worker
// bound, and an optional tracer, and gains new knobs without another
// signature change. The zero value is valid — seed 0, all cores, no
// tracing.
type SweepOptions struct {
	Seed int64
	// Parallel bounds concurrently executing flow runs where the driver
	// parallelizes (0 = GOMAXPROCS, 1 = sequential). Results are
	// bit-identical at any setting.
	Parallel int
	// Trace, when set, records every sweep run's stage spans and solver
	// counters (see internal/obs). Tracing never changes results.
	Trace *obs.Tracer
	// Stages, when set, is the stage-granular build cache every sweep
	// run executes against (see Config.Stages). A clock-target sweep
	// shares everything through placement; re-running a sweep restores
	// every stage. Pure acceleration: results are bit-identical with or
	// without it.
	Stages *StageCache
}

// workers resolves the worker bound.
func (o SweepOptions) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// runner is the local sweep runner: each lane holds one of
// opts.workers() slots, and each cell is a traced RunFlow of d on its
// arch against opts.Stages, every cell sharing one router-state pool.
// Trace runs are labeled label/design/arch.
func (o SweepOptions) runner(ctx context.Context, d bench.Design, archs []*cells.PLBArch, label string) CellRunner {
	sem := make(chan struct{}, o.workers())
	pool := route.NewPool()
	return CellRunner{Lane: func(_ float64, body func(run CellFunc)) {
		sem <- struct{}{}
		defer func() { <-sem }()
		body(func(c Cell) (*Report, error) {
			arch := archs[c.Arch]
			run := o.Trace.NewRun(label + "/" + d.Name + "/" + arch.Name)
			defer run.Close()
			rep, _, err := RunFlow(ctx, d, Config{Arch: arch, Flow: c.Flow, ClockPeriod: c.Clock,
				Seed: o.Seed, Trace: run, Stages: o.Stages, routePool: pool})
			return rep, err
		})
	}}
}

// RunGranularitySweep runs one design across a family of PLB
// architectures of increasing granularity (experiment E8) through
// ExecuteSweep: the first architecture pins the clock period; the
// remaining points then run concurrently (bounded by opts.Parallel)
// with deterministic results. A failure returns the lowest failing
// architecture's error.
func RunGranularitySweep(ctx context.Context, d bench.Design, archs []*cells.PLBArch, opts SweepOptions) ([]SweepPoint, error) {
	reps, err := ExecuteSweep(archs, opts.runner(ctx, d, archs, "sweep"))
	if err != nil {
		return nil, err
	}
	var out []SweepPoint
	for i, rep := range reps {
		out = append(out, SweepPointFrom(archs[i], rep))
	}
	return out, nil
}

// DefaultSweepArchs returns the E8 architecture family: from coarse
// (LUT-heavy) to fine (MUX-rich) granularity, plus an FF-rich variant
// for the Firewire observation. The family is defined declaratively by
// DefaultSweepArchSpecs so it can travel as JSON tickets.
func DefaultSweepArchs() []*cells.PLBArch {
	specs := DefaultSweepArchSpecs()
	out := make([]*cells.PLBArch, len(specs))
	for i, spec := range specs {
		arch, err := spec.Resolve()
		if err != nil {
			panic(fmt.Sprintf("core: default sweep arch %d: %v", i, err)) // unreachable: the family is static
		}
		out[i] = arch
	}
	return out
}
