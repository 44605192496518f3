package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

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
	// PlaceWorkers sets each run's annealer worker count (see
	// Config.PlaceWorkers); reports are bit-identical at any setting.
	PlaceWorkers int
	Verify       bool
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
	// PerRunTimeout bounds the wall time of each flow run; an expired
	// run fails with Stage "timeout" (0 = no per-run bound).
	PerRunTimeout time.Duration
	// ContinueOnError keeps the matrix going past failing cells: the
	// failures land in Matrix.Errors and the matrix comes back
	// partially populated instead of aborting on the first error.
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

// supervisedRun executes one flow run under the supervisor: a per-run
// timeout, panic isolation (a crashed worker becomes a *FlowError with
// Stage "panic" instead of taking down the process), and the repair
// ladder when a defect map is present.
func supervisedRun(ctx context.Context, d bench.Design, cfg Config, timeout time.Duration) (*Report, error) {
	rep, _, err := supervisedRunFull(ctx, d, cfg, timeout, false)
	return rep, err
}

// supervisedRunFull is supervisedRun optionally surfacing the physical
// artifacts (clean-fabric runs only: the repair ladder reports without
// them).
func supervisedRunFull(ctx context.Context, d bench.Design, cfg Config, timeout time.Duration, wantArtifacts bool) (rep *Report, art *Artifacts, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
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
	rep, art, err = execFlow(ctx, d, cfg)
	if !wantArtifacts {
		art = nil
	}
	return rep, art, err
}

// asFlowError coerces err into a *FlowError for the ledger. It walks
// the wrap chain with errors.As — a stage error wrapped by fmt.Errorf
// keeps its real failing stage instead of degrading to "flow".
func asFlowError(d bench.Design, arch *cells.PLBArch, flow FlowKind, err error) *FlowError {
	var fe *FlowError
	if errors.As(err, &fe) {
		return fe
	}
	return &FlowError{Design: d.Name, Arch: arch.Name, Flow: flow.String(), Stage: "flow", Err: err}
}

// progressEmitter delivers Progress lines outside the pool mutex:
// every matrix cell holds a pre-assigned ticket (its canonical
// (design, arch, flow) index), a worker deposits its rendered line —
// or an empty placeholder for a failed cell — and returns to the pool
// immediately; a single emitter goroutine delivers lines one at a
// time in ticket order. Callbacks therefore stay serialized and
// arrive in the same order at any worker count, but a slow — or even
// matrix-re-entrant — callback can no longer hold the pool mutex and
// serialize or deadlock the workers.
type progressEmitter struct {
	cb   func(string)
	mu   sync.Mutex
	cond *sync.Cond
	next int            // next ticket to deliver
	buf  map[int]string // deposited lines awaiting delivery
	done bool           // no further deposits will arrive
	quit chan struct{}  // closed when the emitter goroutine drains
}

func newProgressEmitter(cb func(string)) *progressEmitter {
	e := &progressEmitter{cb: cb, buf: map[int]string{}, quit: make(chan struct{})}
	e.cond = sync.NewCond(&e.mu)
	go e.loop()
	return e
}

func (e *progressEmitter) deposit(ticket int, line string) {
	e.mu.Lock()
	e.buf[ticket] = line
	e.mu.Unlock()
	e.cond.Signal()
}

func (e *progressEmitter) loop() {
	defer close(e.quit)
	e.mu.Lock()
	for {
		if line, ok := e.buf[e.next]; ok {
			delete(e.buf, e.next)
			e.next++
			e.mu.Unlock()
			if line != "" { // failed cells deposit a placeholder
				e.cb(line) // outside the lock: the callback may block freely
			}
			e.mu.Lock()
			continue
		}
		if e.done {
			// Cells skipped by an abort never deposit; jump their gap
			// and deliver whatever remains in ticket order.
			if len(e.buf) == 0 {
				e.mu.Unlock()
				return
			}
			min := -1
			for t := range e.buf {
				if min < 0 || t < min {
					min = t
				}
			}
			e.next = min
			continue
		}
		e.cond.Wait()
	}
}

// close ends the stream and blocks until every deposited line has been
// delivered. Callers must have finished all deposits.
func (e *progressEmitter) close() {
	e.mu.Lock()
	e.done = true
	e.mu.Unlock()
	e.cond.Signal()
	<-e.quit
}

// sortLedger orders the error ledger by (design, arch, flow) so it is
// identical at any worker count.
func sortLedger(errs []*FlowError) {
	sort.Slice(errs, func(i, j int) bool {
		a, b := errs[i], errs[j]
		if a.Design != b.Design {
			return a.Design < b.Design
		}
		if a.Arch != b.Arch {
			return a.Arch < b.Arch
		}
		return a.Flow < b.Flow
	})
}

// RunMatrix executes every (design, arch, flow) combination on a
// bounded worker pool under the flow supervisor. The clock period of
// each design is fixed across its four runs — 1.2× the post-layout
// arrival of the first run — so slack comparisons are apples to
// apples, mirroring the paper's single cycle time per table.
//
// Each (design, arch) anneals once. Its two cells form a chain that
// holds one pool slot: flow b starts right after flow a and restores
// that run's compacted netlist and placement from the stage cache —
// opts.Stages, or else an in-memory tier of the chain's own, dropped
// when the chain ends. Designs run concurrently; within a design the
// clock-pinning run (granular / flow a) heads the granular chain, and
// the lut chain starts as soon as it finishes.
//
// Failures never crash or hang the pool: a panicking worker, a timed
// out run, or an unroutable defect map becomes a *FlowError in the
// returned matrix's ledger. With opts.ContinueOnError the remaining
// cells still run and the partially-populated matrix is returned with
// a nil error; otherwise the pool drains and RunMatrix returns the
// partial matrix together with the first error. Cancelling ctx stops
// the matrix at the next iteration boundary of every in-flight run.
func RunMatrix(ctx context.Context, suite bench.Suite, opts MatrixOptions) (*Matrix, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	par := opts.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	m := &Matrix{Designs: suite.All(), Reports: map[string]map[string]map[string]*Report{}}
	archs := []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()}
	// All cells share one router-state pool: the grids are similarly
	// shaped, so after warm-up each run checks out ready-sized scratch
	// instead of allocating it. Reuse never changes reports.
	pool := route.NewPool()

	// Report maps are pre-built sequentially so workers only write leaf
	// entries (under mu).
	for _, d := range m.Designs {
		m.Reports[d.Name] = map[string]map[string]*Report{}
		for _, arch := range archs {
			m.Reports[d.Name][arch.Name] = map[string]*Report{}
		}
	}

	var (
		sem      = make(chan struct{}, par)
		mu       sync.Mutex // guards Reports, Errors, firstErr
		firstErr error
		wg       sync.WaitGroup
		emitter  *progressEmitter
	)
	if opts.Progress != nil {
		emitter = newProgressEmitter(opts.Progress)
	}
	// Every cell owns a pre-assigned progress ticket — its canonical
	// index in (design, arch, flow) order — so the emitter delivers
	// lines in the same order at any worker count.
	flows := []FlowKind{FlowA, FlowB}
	seq := func(di, ai, fi int) int { return di*len(archs)*len(flows) + ai*len(flows) + fi }
	skip := func(ticket int) {
		if emitter != nil {
			emitter.deposit(ticket, "")
		}
	}
	fail := func(fe *FlowError) {
		mu.Lock()
		m.Errors = append(m.Errors, fe)
		if firstErr == nil {
			firstErr = fe
		}
		mu.Unlock()
	}
	// runOne executes one flow run on the caller's pool slot; it returns
	// nil without running when the matrix is already aborting. A nil
	// return always deposits the cell's placeholder ticket.
	runOne := func(d bench.Design, arch *cells.PLBArch, flow FlowKind, clock float64, stages *StageCache, ticket int) *Report {
		mu.Lock()
		bail := firstErr != nil && !opts.ContinueOnError
		mu.Unlock()
		cfg := Config{
			Arch: arch, Flow: flow, ClockPeriod: clock,
			Seed: opts.Seed, PlaceEffort: opts.PlaceEffort, PlaceWorkers: opts.PlaceWorkers,
			Verify: opts.Verify, Defects: opts.Defects, RepairBudget: opts.RepairBudget,
			Stages: stages, routePool: pool,
		}
		if bail {
			skip(ticket)
			return nil
		}
		if err := ctxFlowErr(ctx, d, cfg); err != nil {
			fail(err)
			skip(ticket)
			return nil
		}
		cfg.Trace = opts.Trace.NewRun(d.Name + "/" + arch.Name + "/" + flow.String())
		defer cfg.Trace.Close()
		rep, err := supervisedRun(ctx, d, cfg, opts.PerRunTimeout)
		if err != nil {
			fail(asFlowError(d, arch, flow, err))
			skip(ticket)
			return nil
		}
		return rep
	}
	store := func(d bench.Design, arch *cells.PLBArch, flow FlowKind, rep *Report, ticket int) {
		line := ""
		if emitter != nil {
			line = rep.summary()
		}
		mu.Lock()
		m.Reports[d.Name][arch.Name][flow.String()] = rep
		mu.Unlock()
		// The Progress callback runs on the emitter goroutine, never
		// under mu: a slow callback cannot serialize the pool.
		if emitter != nil {
			emitter.deposit(ticket, line)
		}
	}
	// runChain executes the cells of one (design, arch) from flow index
	// from on, in flow order, on the caller's pool slot. A failed flow a
	// does not skip its flow b, which then computes the placement itself.
	runChain := func(di int, d bench.Design, ai, from int, clock float64, stages *StageCache) {
		for fi := from; fi < len(flows); fi++ {
			ticket := seq(di, ai, fi)
			if rep := runOne(d, archs[ai], flows[fi], clock, stages, ticket); rep != nil {
				store(d, archs[ai], flows[fi], rep, ticket)
			}
		}
	}
	// tier returns the stage cache one (design, arch) chain runs
	// against: opts.Stages, or else a fresh in-memory tier that lives
	// only as long as the chain, since no other chain shares its keys.
	tier := func() *StageCache {
		if opts.Stages != nil {
			return opts.Stages
		}
		return newMemStageCache()
	}
	// skipDependents records the three clock-dependent cells of a design
	// whose clock-pinning run failed, so the ledger accounts for every
	// cell that did not produce a report.
	skipDependents := func(di int, d bench.Design) {
		for ai, arch := range archs {
			for fi, flow := range flows {
				if ai == 0 && flow == FlowA {
					continue
				}
				fail(&FlowError{Design: d.Name, Arch: arch.Name, Flow: flow.String(),
					Stage: "skipped", Err: fmt.Errorf("clock-pinning run failed")})
				skip(seq(di, ai, fi))
			}
		}
	}

	for di, d := range m.Designs {
		wg.Add(1)
		go func(di int, d bench.Design) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// The first run pins the design's clock period for all four
			// runs: 1.2× its post-layout arrival, so slacks hover near
			// zero like the paper's Table 2.
			stages := tier()
			first := runOne(d, archs[0], FlowA, 0, stages, seq(di, 0, 0))
			if first == nil {
				if opts.ContinueOnError {
					skipDependents(di, d)
				}
				// Without ContinueOnError the dependents never deposit;
				// the emitter skips their tickets when it drains.
				return
			}
			clock := 1.2 * first.MaxArrival
			first.Reclock(clock)
			store(d, archs[0], FlowA, first, seq(di, 0, 0))

			// The pin heads the granular chain, which keeps this slot for
			// its flow b; the lut chain waits for a slot of its own.
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				runChain(di, d, 1, 0, clock, tier())
			}()
			runChain(di, d, 0, 1, clock, stages)
		}(di, d)
	}
	wg.Wait()
	if emitter != nil {
		emitter.close()
	}
	sortLedger(m.Errors)
	if firstErr != nil && !opts.ContinueOnError {
		return m, firstErr
	}
	return m, nil
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

// StageTotals aggregates the per-stage timings of every populated cell
// across the matrix's workers (empty unless the matrix ran with
// MatrixOptions.Trace set).
func (m *Matrix) StageTotals() []obs.StageTiming {
	var lists [][]obs.StageTiming
	for _, byArch := range m.Reports {
		for _, byFlow := range byArch {
			for _, rep := range byFlow {
				if rep != nil && len(rep.Stages) > 0 {
					lists = append(lists, rep.Stages)
				}
			}
		}
	}
	return obs.Aggregate(lists...)
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

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
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
	// PlaceWorkers sets each run's annealer worker count (see
	// Config.PlaceWorkers); results are bit-identical at any setting.
	PlaceWorkers int
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

// GranularitySweep is the deprecated positional-seed form of
// RunGranularitySweep.
//
// Deprecated: use RunGranularitySweep with SweepOptions.
func GranularitySweep(ctx context.Context, d bench.Design, archs []*cells.PLBArch, seed int64) ([]SweepPoint, error) {
	return RunGranularitySweep(ctx, d, archs, SweepOptions{Seed: seed})
}

// RunGranularitySweep runs one design across a family of PLB
// architectures of increasing granularity (experiment E8). The first
// architecture pins the clock period; the remaining points then run
// concurrently (bounded by opts.Parallel) with deterministic results.
func RunGranularitySweep(ctx context.Context, d bench.Design, archs []*cells.PLBArch, opts SweepOptions) ([]SweepPoint, error) {
	if len(archs) == 0 {
		return nil, nil
	}
	pool := route.NewPool()
	point := func(arch *cells.PLBArch, clock float64) (SweepPoint, float64, error) {
		run := opts.Trace.NewRun("sweep/" + d.Name + "/" + arch.Name)
		rep, err := RunFlow(ctx, d, Config{Arch: arch, Flow: FlowB, ClockPeriod: clock,
			Seed: opts.Seed, PlaceWorkers: opts.PlaceWorkers, Trace: run,
			Stages: opts.Stages, routePool: pool})
		run.Close()
		if err != nil {
			return SweepPoint{}, 0, fmt.Errorf("sweep %s: %w", arch.Name, err)
		}
		return SweepPoint{
			Arch: arch.Name, Slots: arch.SlotSummary(), PLBArea: arch.Area,
			DieArea: rep.DieArea, AvgTopSlack: rep.AvgTopSlack,
			UsedPLBs: rep.Rows * rep.Cols,
		}, rep.ClockPeriod, nil
	}

	out := make([]SweepPoint, len(archs))
	first, clock, err := point(archs[0], 0)
	if err != nil {
		return nil, err
	}
	out[0] = first

	var (
		sem      = make(chan struct{}, opts.workers())
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for i := 1; i < len(archs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pt, _, err := point(archs[i], clock)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			out[i] = pt
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
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
