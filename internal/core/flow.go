// Package core orchestrates the complete VPGA implementation flow of
// the paper's Figure 6 — RTL → synthesis → technology mapping →
// regularity-driven compaction → placement → (flow b only) packing
// into the PLB array → routing → post-layout static timing — and
// provides the experiment drivers that regenerate every table and
// figure of the evaluation section.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"vpga/internal/aig"
	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/compact"
	"vpga/internal/defect"
	"vpga/internal/faultinject"
	"vpga/internal/netlist"
	"vpga/internal/obs"
	"vpga/internal/pack"
	"vpga/internal/place"
	"vpga/internal/power"
	"vpga/internal/route"
	"vpga/internal/rtl"
	"vpga/internal/sta"
	"vpga/internal/techmap"
	"vpga/internal/viamap"
)

// FlowKind selects between the paper's two evaluation flows.
type FlowKind int

const (
	// FlowA skips the packing step: a standard-cell-style ASIC flow
	// using the PLB component library.
	FlowA FlowKind = iota
	// FlowB is the full flow producing a legal regular PLB array.
	FlowB
)

// String names the flow as in the paper's tables.
func (f FlowKind) String() string {
	if f == FlowA {
		return "flow a"
	}
	return "flow b"
}

// Config parameterizes one flow run.
type Config struct {
	Arch *cells.PLBArch
	Flow FlowKind
	// ClockPeriod in ps; zero auto-derives 1.2× the pre-layout arrival.
	ClockPeriod float64
	Seed        int64
	// PlaceEffort scales annealing moves per object (default 6).
	PlaceEffort int
	// SkipCompaction disables the regularity-driven compaction step
	// (ablation E4).
	SkipCompaction bool
	// Verify runs random simulation equivalence between the RTL
	// netlist and the final implementation netlist.
	Verify bool
	// Defects injects a fabric defect map: stuck PLB sites are excluded
	// from placement, dead tracks from routing, and via-faulted tiles
	// are penalized. Nil means a clean fabric.
	Defects *defect.Map
	// RouteCapacityScale widens (>1) or narrows (<1) the router's
	// per-edge capacity; zero means 1.0. The repair ladder raises it.
	RouteCapacityScale float64
	// RouteCellsScale > 1 coarsens the routing grid into fewer, wider
	// channels; the repair ladder raises it to dissolve topological
	// cuts a defect map carved into the finer grid.
	RouteCellsScale float64
	// RepairBudget bounds RunFlowRepair's escalation ladder: the number
	// of retries after the baseline attempt (0 uses DefaultRepairBudget,
	// negative disables retries).
	RepairBudget int
	// Trace, when set, records per-stage spans, solver counters and
	// repair attempts for this run (see internal/obs). Tracing is pure
	// observation: a traced run's report is bit-identical to an
	// untraced one after StripMetrics. Nil disables tracing at zero
	// hot-path cost.
	Trace *obs.Run
	// Stages, when set, is the stage-granular build cache (see
	// stagecache.go): every stage boundary stores a content-addressed
	// artifact, and the run restores the deepest cached prefix of its
	// stage-key chain instead of recomputing it. Like Trace it is
	// transport state — reports are bit-identical (after StripMetrics)
	// with or without it, so it never enters the request cache key.
	Stages *StageCache
	// routePool, when set, lends the router reusable working memory
	// (usage/history arrays, A* scratch) for the run. The experiment
	// drivers share one pool across their runs; results are
	// bit-identical with or without it, so like Stages it stays out of
	// the request cache key.
	routePool *route.Pool
}

// Report collects every figure of merit a flow run produces.
type Report struct {
	Design string
	Arch   string
	Flow   string

	// GateCount is the paper's Table 1/2 "No. of gates": the mapped
	// netlist area in 2-input-NAND equivalents before compaction.
	GateCount float64
	// CompactionReduction is the fractional gate-area reduction of the
	// compaction step (paper: ~15% average).
	CompactionReduction float64
	// DieArea: flow a = placed core area; flow b = PLB array area.
	DieArea float64
	Rows    int
	Cols    int
	// Utilization is the used-PLB fraction (flow b only).
	Utilization float64
	// Perturbation is the packing displacement in PLB pitches (flow b).
	Perturbation float64
	Wirelength   float64
	Overflow     int
	// ChannelTracks is the router's per-edge track capacity (the channel
	// width the run routed against); PeakTrackDemand is the peak
	// per-edge track demand in tracks (utilization x capacity). Both are
	// deterministic QoR figures, not wall-clock artifacts.
	ChannelTracks   int
	PeakTrackDemand float64

	ClockPeriod float64
	AvgTopSlack float64 // Table 2 metric: average slack, paths 1–10
	WorstSlack  float64
	MaxArrival  float64

	ConfigCounts    map[string]int
	FullAdders      int
	BuffersInserted int
	// Via personalization statistics (flow b): populated vias across
	// the fabric, potential sites per PLB tile, and the SRAM bits an
	// FPGA-style block would need for the same programmability.
	PopulatedVias  int
	ViaSitesPerPLB int
	// PowerUW is the post-layout switching+leakage power estimate at
	// the report's clock (µW).
	PowerUW float64
	Runtime time.Duration

	// Stages and Solver are the observability block, populated only
	// when Config.Trace is set: per-stage wall-clock timings and the
	// solver counters (annealer passes/moves, router negotiation
	// trajectory, repair attempts). Like Runtime they are wall-clock
	// artifacts of one execution — StripMetrics zeroes all three before
	// bit-identical report comparisons.
	Stages []obs.StageTiming
	Solver *obs.SolverMetrics

	// StageCache is the build-cache provenance block, populated only
	// when the run executed against a stage cache: one record per link
	// of the run's stage-key chain, in pipeline order, saying whether
	// the stage was restored from the cache or computed. Like Stages it
	// describes one execution, not the result — StripMetrics zeroes it
	// (and cached report bytes therefore never carry it).
	StageCache []StageUse `json:",omitempty"`

	// Repair provenance, populated by RunFlowRepair: how many
	// escalations the run needed (0 = clean first attempt) and the full
	// attempt ledger, including the failures that triggered escalation.
	Escalations int
	Attempts    []AttemptRecord
	// DefectSummary is the injected defect map's one-line description
	// (empty for clean-fabric runs).
	DefectSummary string
}

// StripMetrics zeroes the report's wall-clock and observability
// fields — Runtime, Stages, Solver, StageCache. It is the one shared
// helper the determinism suite uses before bit-identical comparisons,
// so reports compare equal across worker counts, scheduling orders,
// tracing on vs. off, and cache hits vs. cold computes.
func (r *Report) StripMetrics() {
	if r == nil {
		return
	}
	r.Runtime = 0
	r.Stages = nil
	r.Solver = nil
	r.StageCache = nil
}

// Clone deep-copies the report — maps, slices and the solver block
// included — so a stored report (the service's content-addressed
// cache) and the copies served from it can never alias a caller's
// mutations.
func (r *Report) Clone() *Report {
	if r == nil {
		return nil
	}
	cp := *r
	if r.ConfigCounts != nil {
		cp.ConfigCounts = make(map[string]int, len(r.ConfigCounts))
		for k, v := range r.ConfigCounts {
			cp.ConfigCounts[k] = v
		}
	}
	if r.Stages != nil {
		cp.Stages = append([]obs.StageTiming(nil), r.Stages...)
	}
	if r.Solver != nil {
		s := *r.Solver
		s.RouteOverflows = append([]int(nil), r.Solver.RouteOverflows...)
		cp.Solver = &s
	}
	if r.StageCache != nil {
		cp.StageCache = append([]StageUse(nil), r.StageCache...)
	}
	if r.Attempts != nil {
		cp.Attempts = append([]AttemptRecord(nil), r.Attempts...)
	}
	return &cp
}

// Reclock shifts the report's slack figures to a different clock
// period. Slack differences between endpoints are clock-independent,
// so the top-10 set and its ordering remain valid.
func (r *Report) Reclock(newClock float64) {
	delta := newClock - r.ClockPeriod
	r.ClockPeriod = newClock
	r.AvgTopSlack += delta
	r.WorstSlack += delta
}

// Artifacts carries the physical results of a flow run for tools that
// need more than the report (floorplan writers, via-map dumps).
type Artifacts struct {
	Impl   *netlist.Netlist
	Prob   *place.Problem
	Pack   *pack.Result
	Routes *route.Result
}

// FlowError is the structured failure record of one flow run: which
// cell of the experiment space failed, at which stage, on which repair
// attempt, and why. Supervisors key off the fields (Stage in
// particular) instead of parsing messages.
type FlowError struct {
	Design string
	Arch   string
	Flow   string
	// Stage names the failing flow stage: "rtl", "synth", "map",
	// "compact", "verify", "place", "sta", "pack", "viamap", "route",
	// "power" — or "panic" (a crashed worker), "timeout"/"cancelled"
	// (context expiry), "repair" (escalation budget exhausted),
	// "skipped" (dependent run not attempted).
	Stage string
	// Attempt is the repair-ladder rung (0 = baseline attempt).
	Attempt int
	Err     error
}

func (e *FlowError) Error() string {
	return fmt.Sprintf("core: %s/%s/%s: %s (attempt %d): %v",
		e.Design, e.Arch, e.Flow, e.Stage, e.Attempt, e.Err)
}

func (e *FlowError) Unwrap() error { return e.Err }

// ParseFlowError rebuilds the *FlowError another process rendered as
// msg for one cell — the inverse of Error, given the cell's
// coordinates and the reported stage — so a coordinator ledgers and
// fails a remote cell exactly as a single node does. A message not in
// that form becomes the generic Stage "flow" entry a single node
// records for an unstructured error.
func ParseFlowError(design, arch, flow, stage, msg string) *FlowError {
	prefix := fmt.Sprintf("core: %s/%s/%s: %s (attempt ", design, arch, flow, stage)
	if rest, ok := strings.CutPrefix(msg, prefix); ok {
		if n, cause, ok := strings.Cut(rest, "): "); ok {
			if attempt, err := strconv.Atoi(n); err == nil {
				return &FlowError{Design: design, Arch: arch, Flow: flow, Stage: stage,
					Attempt: attempt, Err: errors.New(cause)}
			}
		}
	}
	return asFlowError(design, arch, flow, errors.New(msg))
}

// flowErr wraps a stage failure as a *FlowError for one run.
func flowErr(d bench.Design, cfg Config, stage string, err error) *FlowError {
	arch := ""
	if cfg.Arch != nil {
		arch = cfg.Arch.Name
	}
	return &FlowError{Design: d.Name, Arch: arch, Flow: cfg.Flow.String(), Stage: stage, Err: err}
}

// flowRun is one RunFlow call's fixed state, read by its stage helper
// and its stage-cache links. The stages' intermediate results stay
// RunFlow's locals, so each becomes garbage after its last reader.
type flowRun struct {
	ctx    context.Context
	d      bench.Design
	cfg    Config
	rep    *Report
	prefix *stagePrefix // nil without a stage cache
}

// stage runs one flow stage. With fault set it first consults the
// fault-injection harness at the stage's fault point "stage.<name>"; a
// restored stage, and a stage's second span, skip it. fn runs inside
// the stage's trace span, and its error fails the run as the stage's
// *FlowError — or as timeout/cancelled once the context has expired,
// since a solver stopped by the context fails with its own error. A
// fired fault fails the stage through the same *FlowError path a real
// error takes, so the repair ladder and the service's retry layer see
// injected and organic failures identically; a crash-kind fault kills
// the process here, modeling a SIGKILL landing between stages.
// Disabled injection costs one atomic load per stage.
func (r *flowRun) stage(name string, fault bool, fn func() error) error {
	if fault && faultinject.Active() != nil {
		if err := faultinject.Check("stage." + name); err != nil {
			return flowErr(r.d, r.cfg, name, err)
		}
	}
	end := r.cfg.Trace.Stage(name)
	err := fn()
	end()
	if err == nil {
		return nil
	}
	if fe := ctxFlowErr(r.ctx, r.d, r.cfg); fe != nil {
		return fe
	}
	return flowErr(r.d, r.cfg, name, err)
}

// link records one chain link's outcome — provenance plus the cache's
// per-stage counters — and reports whether the cache satisfied the
// link. Call it exactly once per chain link, in pipeline order.
func (r *flowRun) link(stage string) bool {
	i := r.prefix.index(stage)
	if i < 0 {
		return false
	}
	hit := i <= r.prefix.depth
	r.cfg.Stages.bump(stage, hit)
	r.rep.StageCache = append(r.rep.StageCache, StageUse{Stage: stage, Key: r.prefix.chain[i].Key, Hit: hit})
	return hit
}

// save stores a computed stage's artifact, best-effort; without a
// cache, or for a stage the cache does not keep, the payload is never
// even encoded.
func (r *flowRun) save(stage string, build func() any) {
	if key := r.prefix.key(stage); key != "" && r.cfg.Stages.keeps(stage) {
		r.cfg.Stages.put(key, encodeStage(build()))
	}
}

// ctxFlowErr reports a context expiry as a *FlowError, distinguishing
// timeouts from cancellations; it returns nil while ctx is live.
func ctxFlowErr(ctx context.Context, d bench.Design, cfg Config) *FlowError {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	return flowErr(d, cfg, ctxStage(err), err)
}

// ctxStage names the ledger stage of a context error: "timeout" for an
// expired deadline — errors.Is, not ==, so custom contexts and wrapped
// deadline errors classify too — and "cancelled" otherwise.
func ctxStage(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	return "cancelled"
}

// RunFlow pushes one design through the staged pipeline on a resolved
// Config and returns the report and the physical artifacts. It is what
// Run executes once the supervisor has resolved the request; call it
// directly for knobs a FlowRequest does not carry (a custom arch
// pointer, routing scales, a prebuilt defect map). It runs unsupervised:
// no panic isolation, and a defect map is applied without the repair
// ladder (see RunFlowRepair).
//
// With a stage cache it resolves the deepest cached prefix of the
// run's stage-key chain, restores it bit-identically, computes only the
// suffix, and stores each computed stage's artifact; without one it is
// the plain ten-stage flow. Cached-prefix runs produce reports
// byte-identical (after StripMetrics) to cold runs — restoration
// reproduces the exact netlists, positions and routing the cold run
// computes, and everything downstream is deterministic. The context
// cancels the run at stage and iteration boundaries; a run that
// completes without cancellation is bit-identical to an uncancellable
// one.
func RunFlow(ctx context.Context, d bench.Design, cfg Config) (*Report, *Artifacts, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.PlaceEffort == 0 {
		cfg.PlaceEffort = 6
	}
	rep := &Report{Design: d.Name, Arch: cfg.Arch.Name, Flow: cfg.Flow.String()}
	if cfg.Defects != nil {
		rep.DefectSummary = cfg.Defects.String()
	}
	if err := ctxFlowErr(ctx, d, cfg); err != nil {
		return nil, nil, err
	}
	r := &flowRun{ctx: ctx, d: d, cfg: cfg, rep: rep}
	if cfg.Stages != nil {
		// Resolve the deepest cached prefix of this run's key chain.
		if chain, err := stageChain(d, cfg); err == nil {
			r.prefix = resolvePrefix(cfg.Stages, chain)
		}
	}

	// Synthesis front end: rtl → synth → map. A restored mapped (or
	// deeper) netlist replaces all three; the RTL netlist itself is
	// still elaborated on demand for verification.
	var rtlNet, mappedNet *netlist.Netlist
	if r.link(StageMap) {
		if !r.prefix.restored(StageCompact) {
			ma := r.prefix.art(StageMap).(*mapArtifact)
			mappedNet = ma.Netlist
			rep.GateCount = ma.GateCount
		}
	} else {
		var mapped *techmap.Result
		var err error
		if rtlNet, mapped, err = r.frontEnd(); err != nil {
			return nil, nil, err
		}
		mappedNet = mapped.Netlist
		rep.GateCount = mapped.Area
		// Snapshot the mapped netlist before compaction touches it.
		r.save(StageMap, func() any {
			return &mapArtifact{Schema: stageArtifactSchema, Netlist: mappedNet, GateCount: rep.GateCount}
		})
	}

	var impl *netlist.Netlist // the implementation netlist in flight
	if r.link(StageCompact) {
		ca := r.prefix.art(StageCompact).(*compactArtifact)
		impl = ca.Netlist
		rep.GateCount = ca.GateCount
		rep.CompactionReduction = ca.Reduction
		rep.ConfigCounts = ca.ConfigCounts
		rep.FullAdders = ca.FullAdders
		rep.BuffersInserted = ca.BuffersInserted
	} else {
		// Regularity-driven logic compaction (the span also covers the
		// buffer-insertion tail of logic synthesis).
		if err := r.stage("compact", true, func() (err error) {
			if cfg.SkipCompaction {
				// Uncompacted component netlists still need configuration
				// types for packing: wrap each component cell as its
				// identity config.
				if impl, err = identityConfigs(mappedNet, cfg.Arch); err != nil {
					return err
				}
			} else {
				cres, err := compact.Run(mappedNet, cfg.Arch)
				if err != nil {
					return err
				}
				impl = cres.Netlist
				rep.CompactionReduction = cres.Reduction()
				rep.ConfigCounts = cres.ConfigCounts
				rep.FullAdders = cres.FullAdders
			}
			// Physical synthesis: fanout-driven buffer insertion (Sec. 3.1's
			// "buffer insertion ... to meet timing constraints").
			rep.BuffersInserted = insertBuffers(impl)
			return nil
		}); err != nil {
			return nil, nil, err
		}
		r.save(StageCompact, func() any {
			return &compactArtifact{
				Schema: stageArtifactSchema, Netlist: impl, GateCount: rep.GateCount,
				Reduction: rep.CompactionReduction, ConfigCounts: rep.ConfigCounts,
				FullAdders: rep.FullAdders, BuffersInserted: rep.BuffersInserted,
			}
		})
	}

	if cfg.Verify {
		// Verification always runs — it is a correctness check the
		// request asked for, whether the netlist was computed or
		// restored. The RTL netlist comes from the per-process cache.
		if err := r.stage("verify", true, func() (err error) {
			if rtlNet == nil {
				if rtlNet, err = compileRTL(d); err != nil {
					return err
				}
			}
			return netlist.Equivalent(rtlNet, impl, 8, 4, cfg.Seed+77)
		}); err != nil {
			return nil, nil, err
		}
	}
	if err := ctxFlowErr(ctx, d, cfg); err != nil {
		return nil, nil, err
	}

	art := &Artifacts{Impl: impl}

	// ASIC-style placement (physical synthesis). The problem is always
	// built — every downstream stage reads it — but the annealed
	// coordinates come from the cache when the placement (or anything
	// deeper) is restored. Stuck PLB sites from the defect map are
	// excluded from the spread and every move.
	popts := place.Options{Seed: cfg.Seed}
	if cfg.Defects != nil {
		popts.Blocked = cfg.Defects.Stuck
	}
	placeHit, packHit := r.prefix.restored(StagePlace), r.prefix.restored(StagePack)
	var prob *place.Problem
	if err := r.stage("place", !placeHit, func() (err error) {
		if prob, err = place.Build(impl, place.ArchArea(cfg.Arch), popts); err != nil {
			return err
		}
		if placeHit {
			// The deepest restored positions win. The pack artifact holds
			// the legalized post-pack coordinates: annealing, net
			// weighting, refinement and packing all collapse into one
			// restore.
			var pos []float64
			if packHit {
				pos = r.prefix.art(StagePack).(*packArtifact).Positions
			} else {
				pos = r.prefix.art(StagePlace).(*placeArtifact).Positions
			}
			if prob.SetPositions(pos) == nil {
				return nil
			}
			r.prefix.demote(StagePlace) // shape mismatch: recompute placement onward
			placeHit, packHit = false, false
		}
		return prob.Anneal(place.Options{
			Seed: cfg.Seed, MovesPerObj: cfg.PlaceEffort, Ctx: ctx,
			Trace: cfg.Trace.Anneal(),
		})
	}); err != nil {
		return nil, nil, err
	}
	r.link(StagePlace)
	if !placeHit {
		// Snapshot the post-anneal placement. Pre-refinement on
		// purpose: the place key excludes the clock, and only net
		// weighting + refinement read it, so they rerun in the suffix
		// and every clock-target variant shares this snapshot.
		r.save(StagePlace, func() any {
			return &placeArtifact{Schema: stageArtifactSchema, Objects: len(prob.Objs), Positions: prob.Positions()}
		})
	}

	// Pre-layout timing feeds three consumers — the auto-derived clock,
	// refinement's net weights, and packing's criticality — computed
	// only when one of them needs it.
	var pre *sta.Report
	if cfg.ClockPeriod == 0 || !packHit {
		if err := r.stage("sta", true, func() (err error) {
			pre, err = sta.Analyze(impl, cfg.Arch, nil, nil, sta.Options{ClockPeriod: cfg.ClockPeriod})
			return err
		}); err != nil {
			return nil, nil, err
		}
	}
	clock := cfg.ClockPeriod
	if clock == 0 {
		clock = 1.2 * pre.MaxArrival
	}
	rep.ClockPeriod = clock
	if !packHit {
		// Net weights steer only refinement (nothing downstream reads
		// them); a restored post-pack placement skips the whole block.
		// Refinement cannot fail, and its fault point is the anneal's.
		_ = r.stage("place", false, func() error {
			for ni, w := range sta.NetWeights(impl, prob, pre, clock, 4) {
				prob.SetNetWeight(ni, w)
			}
			prob.Refine(0.10, 3, cfg.Seed+3)
			return nil
		})
	}

	// Flow b: pack into the regular PLB array.
	if cfg.Flow == FlowB {
		var pres *pack.Result
		if r.link(StagePack) {
			pres = r.prefix.art(StagePack).(*packArtifact).Pack
		} else {
			if err := r.stage("pack", true, func() (err error) {
				crit := sta.ObjCriticality(impl, prob, pre, clock)
				pres, err = pack.Run(impl, cfg.Arch, prob, pack.Options{Seed: cfg.Seed, Criticality: crit})
				return err
			}); err != nil {
				return nil, nil, err
			}
			r.save(StagePack, func() any {
				return &packArtifact{
					Schema: stageArtifactSchema, Pack: pres,
					Objects: len(prob.Objs), Positions: prob.Positions(),
				}
			})
		}
		art.Pack = pres
		rep.Rows, rep.Cols = pres.Rows, pres.Cols
		rep.DieArea = pres.DieArea
		rep.Utilization = pres.Utilization()
		rep.Perturbation = pres.Perturbation
		// Via personalization of the packed fabric (cheap and purely a
		// function of netlist + arch, so it always recomputes).
		if err := r.stage("viamap", true, func() error {
			vrep, err := viamap.FabricVias(impl, cfg.Arch)
			if err != nil {
				return err
			}
			rep.PopulatedVias = vrep.PopulatedVias
			rep.ViaSitesPerPLB = vrep.PotentialPerPLB
			return nil
		}); err != nil {
			return nil, nil, err
		}
	} else {
		rep.DieArea = prob.W * prob.H
	}
	if err := ctxFlowErr(ctx, d, cfg); err != nil {
		return nil, nil, err
	}

	// ASIC-style global routing over the array / core. Dead tracks and
	// via faults from the defect map constrain the search graph.
	var routes *route.Result
	if r.link(StageRoute) {
		routes = r.prefix.art(StageRoute).(*routeArtifact).Routes
	} else {
		ropts := route.Options{
			Ctx: ctx, CapacityScale: cfg.RouteCapacityScale, CellsScale: cfg.RouteCellsScale,
			Pool: cfg.routePool, Trace: cfg.Trace.Route(),
		}
		if cfg.Defects != nil {
			ropts.Faults = cfg.Defects
		}
		if err := r.stage("route", true, func() (err error) {
			routes, err = route.Route(prob, ropts)
			return err
		}); err != nil {
			return nil, nil, err
		}
		r.save(StageRoute, func() any {
			return &routeArtifact{Schema: stageArtifactSchema, Routes: routes}
		})
	}
	art.Prob = prob
	art.Routes = routes
	rep.Wirelength = routes.Total
	rep.Overflow = routes.Overflow
	rep.ChannelTracks = routes.Capacity()
	rep.PeakTrackDemand = routes.MaxUtilization * float64(routes.Capacity())

	// Post-layout static timing, then power at the run's clock.
	if err := r.stage("sta", true, func() error {
		post, err := sta.Analyze(impl, cfg.Arch, prob, routes, sta.Options{ClockPeriod: clock})
		if err != nil {
			return err
		}
		rep.AvgTopSlack = post.AvgTopSlack
		rep.WorstSlack = post.WorstSlack
		rep.MaxArrival = post.MaxArrival
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if err := r.stage("power", true, func() error {
		pw, err := power.Estimate(impl, cfg.Arch, prob, routes, power.Options{ClockPS: clock})
		if err != nil {
			return err
		}
		rep.PowerUW = pw.TotalUW
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if cfg.Trace != nil {
		rep.Stages = cfg.Trace.StageTimings()
		rep.Solver = cfg.Trace.SolverMetrics()
	}
	rep.Runtime = time.Since(start)
	return rep, art, nil
}

// frontEnd runs the synthesis front end — rtl, synth, map — and
// returns the RTL netlist and the mapping. The AIG lives only here.
func (r *flowRun) frontEnd() (*netlist.Netlist, *techmap.Result, error) {
	var rtlNet *netlist.Netlist
	var des *aig.Design
	var mapped *techmap.Result
	if err := r.stage("rtl", true, func() (err error) {
		rtlNet, err = compileRTL(r.d)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := r.stage("synth", true, func() (err error) {
		if des, err = aig.FromNetlist(rtlNet); err == nil {
			des.Optimize(3)
		}
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := r.stage("map", true, func() (err error) {
		mapped, err = techmap.Map(des, r.cfg.Arch, techmap.Options{AreaPasses: 1})
		return err
	}); err != nil {
		return nil, nil, err
	}
	return rtlNet, mapped, nil
}

// compileRTL caches elaborated benchmark netlists: paper-scale designs
// are elaborated once per process. The cache is shared by concurrent
// matrix workers, so all access goes through rtlCacheMu; the cached
// netlist itself is only ever read (Clone copies it), never mutated.
var (
	rtlCacheMu sync.Mutex
	rtlCache   = map[string]*netlist.Netlist{}
)

func compileRTL(d bench.Design) (*netlist.Netlist, error) {
	rtlCacheMu.Lock()
	nl, ok := rtlCache[d.RTL]
	rtlCacheMu.Unlock()
	if ok {
		return nl.Clone(), nil
	}
	nl, err := rtl.Compile(d.RTL)
	if err != nil {
		return nil, fmt.Errorf("core: %s: rtl: %w", d.Name, err)
	}
	rtlCacheMu.Lock()
	// A concurrent worker may have compiled the same source first; keep
	// the existing entry so every caller clones one canonical netlist.
	if prev, ok := rtlCache[d.RTL]; ok {
		nl = prev
	} else {
		rtlCache[d.RTL] = nl
	}
	rtlCacheMu.Unlock()
	return nl.Clone(), nil
}

// identityConfigs retypes component cells as their identity
// configurations so the packer can process an uncompacted netlist.
func identityConfigs(nl *netlist.Netlist, arch *cells.PLBArch) (*netlist.Netlist, error) {
	out := nl.Clone()
	for _, n := range out.Nodes() {
		if n.Kind != netlist.KindGate || n.Type == "INV" || n.Type == "BUF" {
			continue
		}
		cfgs := arch.ConfigsFor(n.Func)
		if len(cfgs) == 0 {
			return nil, fmt.Errorf("core: no identity config for %s %v", n.Type, n.Func)
		}
		// Smallest config implementing the function.
		best := cfgs[0]
		for _, c := range cfgs {
			if c.Area < best.Area {
				best = c
			}
		}
		n.Type = best.Name
	}
	return out, nil
}

// summary renders a one-line report.
func (r *Report) summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-13s %-7s die=%9.0f slack=%8.1f gates=%8.0f",
		r.Design, r.Arch, r.Flow, r.DieArea, r.AvgTopSlack, r.GateCount)
	if r.Rows > 0 {
		fmt.Fprintf(&sb, " array=%dx%d util=%.0f%%", r.Rows, r.Cols, 100*r.Utilization)
	}
	return sb.String()
}
