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
	"sort"
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

// stageFault consults the fault-injection harness at the named stage
// boundary (fault points "stage.<name>"). A fired fault fails the
// stage through the same *FlowError path a real error takes, so the
// repair ladder and the service's retry layer see injected and
// organic failures identically; a crash-kind fault kills the process
// here, modeling a SIGKILL landing between stages. Disabled injection
// costs one atomic load per stage. Restored stages skip their fault
// point — the stage did not run.
func stageFault(d bench.Design, cfg Config, stage string) *FlowError {
	if faultinject.Active() == nil {
		return nil
	}
	if err := faultinject.Check("stage." + stage); err != nil {
		return flowErr(d, cfg, stage, err)
	}
	return nil
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

// stagePrefix is the resolved cached prefix of one run: the stage-key
// chain, the index of the deepest stage the cache can satisfy, and the
// decoded artifacts the restore consumes.
type stagePrefix struct {
	chain []StageKey
	depth int // chain index of the deepest cache-satisfied stage; -1 = none

	mapArt  *mapArtifact
	compact *compactArtifact
	place   *placeArtifact
	pack    *packArtifact
	route   *routeArtifact
}

// index locates a stage in the chain (-1 when absent, e.g. pack in
// flow a).
func (p *stagePrefix) index(stage string) int {
	if p == nil {
		return -1
	}
	for i, sk := range p.chain {
		if sk.Stage == stage {
			return i
		}
	}
	return -1
}

// restored reports whether the cache satisfies the stage: its chain
// index is within the restored prefix.
func (p *stagePrefix) restored(stage string) bool {
	if p == nil || p.depth < 0 {
		return false
	}
	i := p.index(stage)
	return i >= 0 && i <= p.depth
}

// demote caps the restored depth at the named stage's predecessor —
// the fallback when a restore step fails shape validation mid-run.
func (p *stagePrefix) demote(stage string) {
	if p == nil {
		return
	}
	if i := p.index(stage); i >= 0 && p.depth >= i {
		p.depth = i - 1
	}
}

// resolvePrefix probes the stage cache for the deepest restorable
// prefix of the chain. Depth N is restorable when artifact N decodes
// along with every shallower artifact its restore consumes: routing
// needs the compacted netlist plus the position source (pack for flow
// b, placement for flow a); packing and placement need the compacted
// netlist. Decode failures are silent misses — the store already
// evicted anything corrupt.
func resolvePrefix(stages *StageCache, chain []StageKey, flow FlowKind) *stagePrefix {
	p := &stagePrefix{chain: chain, depth: -1}
	key := make(map[string]string, len(chain))
	for _, sk := range chain {
		key[sk.Stage] = sk.Key
	}
	tried := map[string]bool{}
	load := func(stage string, out any) bool {
		raw, ok := stages.get(key[stage])
		return ok && decodeStage(raw, out)
	}
	okCompact := func() bool {
		if !tried[StageCompact] {
			tried[StageCompact] = true
			var a compactArtifact
			if load(StageCompact, &a) && a.Netlist != nil {
				p.compact = &a
			}
		}
		return p.compact != nil
	}
	okPlace := func() bool {
		if !tried[StagePlace] {
			tried[StagePlace] = true
			var a placeArtifact
			if load(StagePlace, &a) && len(a.Positions) == 2*a.Objects {
				p.place = &a
			}
		}
		return p.place != nil
	}
	okPack := func() bool {
		if !tried[StagePack] {
			tried[StagePack] = true
			var a packArtifact
			if load(StagePack, &a) && a.Pack != nil && len(a.Positions) == 2*a.Objects {
				p.pack = &a
			}
		}
		return p.pack != nil
	}
	okRoute := func() bool {
		if !tried[StageRoute] {
			tried[StageRoute] = true
			var a routeArtifact
			if load(StageRoute, &a) && a.Routes != nil {
				p.route = &a
			}
		}
		return p.route != nil
	}

	switch {
	case okRoute() && okCompact() &&
		((flow == FlowB && okPack()) || (flow == FlowA && okPlace())):
		p.depth = p.index(StageRoute)
	case flow == FlowB && okPack() && okCompact():
		p.depth = p.index(StagePack)
	case okPlace() && okCompact():
		p.depth = p.index(StagePlace)
	case okCompact():
		p.depth = p.index(StageCompact)
	default:
		var a mapArtifact
		if load(StageMap, &a) && a.Netlist != nil {
			p.mapArt = &a
			p.depth = p.index(StageMap)
		}
	}
	return p
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
	stages := cfg.Stages
	rep := &Report{Design: d.Name, Arch: cfg.Arch.Name, Flow: cfg.Flow.String()}
	if cfg.Defects != nil {
		rep.DefectSummary = cfg.Defects.String()
	}
	if err := ctxFlowErr(ctx, d, cfg); err != nil {
		return nil, nil, err
	}

	// Resolve the deepest cached prefix of this run's key chain.
	var prefix *stagePrefix
	if stages != nil {
		if chain, err := stageChain(d, cfg); err == nil {
			prefix = resolvePrefix(stages, chain, cfg.Flow)
		}
	}
	// mark records one chain link's outcome — provenance plus the
	// cache's per-stage counters — and reports whether the cache
	// satisfied the stage. Call exactly once per chain stage, in
	// pipeline order.
	mark := func(stage string) bool {
		if prefix == nil {
			return false
		}
		i := prefix.index(stage)
		if i < 0 {
			return false
		}
		hit := i <= prefix.depth
		stages.bump(stage, hit)
		rep.StageCache = append(rep.StageCache, StageUse{Stage: stage, Key: prefix.chain[i].Key, Hit: hit})
		return hit
	}
	// save stores a computed stage's artifact, best-effort; without a
	// cache, or for a stage the cache does not keep, the payload is
	// never even encoded.
	save := func(stage string, build func() any) {
		if !stages.keeps(stage) || prefix == nil {
			return
		}
		if key := prefix.key(stage); key != "" {
			stages.put(key, encodeStage(build()))
		}
	}

	// Synthesis front end: rtl → synth → map. A restored mapped (or
	// deeper) netlist replaces all three; the RTL netlist itself is
	// still elaborated on demand for verification.
	var impl *netlist.Netlist // the implementation netlist in flight
	var rtlNet *netlist.Netlist
	var err error
	compileFrontEnd := func() (*techmap.Result, *FlowError) {
		if fe := stageFault(d, cfg, "rtl"); fe != nil {
			return nil, fe
		}
		end := cfg.Trace.Stage("rtl")
		rtlNet, err = compileRTL(d)
		end()
		if err != nil {
			return nil, flowErr(d, cfg, "rtl", err)
		}
		if fe := stageFault(d, cfg, "synth"); fe != nil {
			return nil, fe
		}
		end = cfg.Trace.Stage("synth")
		des, err := aig.FromNetlist(rtlNet)
		if err != nil {
			end()
			return nil, flowErr(d, cfg, "synth", err)
		}
		des.Optimize(3)
		end()
		if fe := stageFault(d, cfg, "map"); fe != nil {
			return nil, fe
		}
		end = cfg.Trace.Stage("map")
		mapped, err := techmap.Map(des, cfg.Arch, techmap.Options{AreaPasses: 1})
		end()
		if err != nil {
			return nil, flowErr(d, cfg, "map", err)
		}
		return mapped, nil
	}

	compactHit := prefix.restored(StageCompact)
	mapHit := compactHit || prefix.restored(StageMap)
	var mapped *techmap.Result
	if mapHit {
		mark(StageMap)
		if !compactHit {
			rep.GateCount = prefix.mapArt.GateCount
		}
	} else {
		mark(StageMap)
		var fe *FlowError
		if mapped, fe = compileFrontEnd(); fe != nil {
			return nil, nil, fe
		}
		rep.GateCount = mapped.Area
		// Snapshot the mapped netlist before compaction touches it.
		save(StageMap, func() any {
			return &mapArtifact{Schema: stageArtifactSchema, Netlist: mapped.Netlist, GateCount: rep.GateCount}
		})
	}

	// Regularity-driven logic compaction (the span also covers the
	// buffer-insertion tail of logic synthesis).
	if compactHit {
		mark(StageCompact)
		ca := prefix.compact
		impl = ca.Netlist
		rep.GateCount = ca.GateCount
		rep.CompactionReduction = ca.Reduction
		rep.ConfigCounts = ca.ConfigCounts
		rep.FullAdders = ca.FullAdders
		rep.BuffersInserted = ca.BuffersInserted
	} else {
		mark(StageCompact)
		if fe := stageFault(d, cfg, "compact"); fe != nil {
			return nil, nil, fe
		}
		end := cfg.Trace.Stage("compact")
		var base *netlist.Netlist
		if mapped != nil {
			base = mapped.Netlist
		} else {
			base = prefix.mapArt.Netlist // restored mapped netlist
		}
		if !cfg.SkipCompaction {
			cres, err := compact.Run(base, cfg.Arch)
			if err != nil {
				end()
				return nil, nil, flowErr(d, cfg, "compact", err)
			}
			impl = cres.Netlist
			rep.CompactionReduction = cres.Reduction()
			rep.ConfigCounts = cres.ConfigCounts
			rep.FullAdders = cres.FullAdders
		} else {
			// Uncompacted component netlists still need configuration types
			// for packing: wrap each component cell as its identity config.
			impl, err = identityConfigs(base, cfg.Arch)
			if err != nil {
				end()
				return nil, nil, flowErr(d, cfg, "compact", err)
			}
		}
		// Physical synthesis: fanout-driven buffer insertion (Sec. 3.1's
		// "buffer insertion ... to meet timing constraints").
		rep.BuffersInserted = insertBuffers(impl)
		end()
		save(StageCompact, func() any {
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
		if fe := stageFault(d, cfg, "verify"); fe != nil {
			return nil, nil, fe
		}
		if rtlNet == nil {
			if rtlNet, err = compileRTL(d); err != nil {
				return nil, nil, flowErr(d, cfg, "rtl", err)
			}
		}
		end := cfg.Trace.Stage("verify")
		err := netlist.Equivalent(rtlNet, impl, 8, 4, cfg.Seed+77)
		end()
		if err != nil {
			return nil, nil, flowErr(d, cfg, "verify", err)
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
	placeHit := prefix.restored(StagePlace)
	if !placeHit {
		if fe := stageFault(d, cfg, "place"); fe != nil {
			return nil, nil, fe
		}
	}
	end := cfg.Trace.Stage("place")
	prob, err := place.Build(impl, place.ArchArea(cfg.Arch), popts)
	if err != nil {
		end()
		return nil, nil, flowErr(d, cfg, "place", err)
	}
	packHit := cfg.Flow == FlowB && prefix.restored(StagePack)
	if packHit {
		// The pack artifact holds the legalized post-pack coordinates:
		// annealing, net weighting, refinement and packing all collapse
		// into one restore.
		if prob.SetPositions(prefix.pack.Positions) != nil {
			prefix.demote(StagePlace) // shape mismatch: recompute placement onward
			packHit, placeHit = false, false
		}
	} else if placeHit {
		if prob.SetPositions(prefix.place.Positions) != nil {
			prefix.demote(StagePlace)
			placeHit = false
		}
	}
	if !placeHit && !packHit {
		err = prob.Anneal(place.Options{
			Seed: cfg.Seed, MovesPerObj: cfg.PlaceEffort, Ctx: ctx,
			Trace: cfg.Trace.Anneal(),
		})
	}
	end()
	if err != nil {
		if fe := ctxFlowErr(ctx, d, cfg); fe != nil {
			return nil, nil, fe
		}
		return nil, nil, flowErr(d, cfg, "place", err)
	}
	mark(StagePlace)
	if !placeHit && !packHit {
		// Snapshot the post-anneal placement. Pre-refinement on
		// purpose: the place key excludes the clock, and only net
		// weighting + refinement read it, so they rerun in the suffix
		// and every clock-target variant shares this snapshot.
		save(StagePlace, func() any {
			return &placeArtifact{Schema: stageArtifactSchema, Objects: len(prob.Objs), Positions: prob.Positions()}
		})
	}

	// Pre-layout timing feeds three consumers — the auto-derived clock,
	// refinement's net weights, and packing's criticality — computed
	// only when one of them needs it.
	needRefine := !packHit
	needPre := cfg.ClockPeriod == 0 || needRefine || (cfg.Flow == FlowB && !packHit)
	var pre *sta.Report
	if needPre {
		if fe := stageFault(d, cfg, "sta"); fe != nil {
			return nil, nil, fe
		}
		end = cfg.Trace.Stage("sta")
		pre, err = sta.Analyze(impl, cfg.Arch, nil, nil, sta.Options{ClockPeriod: cfg.ClockPeriod})
		end()
		if err != nil {
			return nil, nil, flowErr(d, cfg, "sta", err)
		}
	}
	clock := cfg.ClockPeriod
	if clock == 0 {
		clock = 1.2 * pre.MaxArrival
	}
	rep.ClockPeriod = clock
	if needRefine {
		// Net weights steer only refinement (nothing downstream reads
		// them); a restored post-pack placement skips the whole block.
		end = cfg.Trace.Stage("place")
		for ni, w := range sta.NetWeights(impl, prob, pre, clock, 4) {
			prob.SetNetWeight(ni, w)
		}
		prob.Refine(0.10, 3, cfg.Seed+3)
		end()
	}

	// Flow b: pack into the regular PLB array.
	if cfg.Flow == FlowB {
		var pres *pack.Result
		if packHit {
			mark(StagePack)
			pres = prefix.pack.Pack
		} else {
			mark(StagePack)
			if fe := stageFault(d, cfg, "pack"); fe != nil {
				return nil, nil, fe
			}
			end = cfg.Trace.Stage("pack")
			crit := sta.ObjCriticality(impl, prob, pre, clock)
			pres, err = pack.Run(impl, cfg.Arch, prob, pack.Options{Seed: cfg.Seed, Criticality: crit})
			end()
			if err != nil {
				return nil, nil, flowErr(d, cfg, "pack", err)
			}
			save(StagePack, func() any {
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
		if fe := stageFault(d, cfg, "viamap"); fe != nil {
			return nil, nil, fe
		}
		end = cfg.Trace.Stage("viamap")
		vrep, err := viamap.FabricVias(impl, cfg.Arch)
		end()
		if err == nil {
			rep.PopulatedVias = vrep.PopulatedVias
			rep.ViaSitesPerPLB = vrep.PotentialPerPLB
		} else {
			return nil, nil, flowErr(d, cfg, "viamap", err)
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
	if prefix.restored(StageRoute) {
		mark(StageRoute)
		routes = prefix.route.Routes
	} else {
		mark(StageRoute)
		ropts := route.Options{
			Ctx: ctx, CapacityScale: cfg.RouteCapacityScale, CellsScale: cfg.RouteCellsScale,
			Pool: cfg.routePool, Trace: cfg.Trace.Route(),
		}
		if cfg.Defects != nil {
			ropts.Faults = cfg.Defects
		}
		if fe := stageFault(d, cfg, "route"); fe != nil {
			return nil, nil, fe
		}
		end = cfg.Trace.Stage("route")
		routes, err = route.Route(prob, ropts)
		end()
		if err != nil {
			if fe := ctxFlowErr(ctx, d, cfg); fe != nil {
				return nil, nil, fe
			}
			return nil, nil, flowErr(d, cfg, "route", err)
		}
		save(StageRoute, func() any {
			return &routeArtifact{Schema: stageArtifactSchema, Routes: routes}
		})
	}
	art.Prob = prob
	art.Routes = routes
	rep.Wirelength = routes.Total
	rep.Overflow = routes.Overflow
	rep.ChannelTracks = routes.Capacity()
	rep.PeakTrackDemand = routes.MaxUtilization * float64(routes.Capacity())

	// Post-layout static timing.
	if fe := stageFault(d, cfg, "sta"); fe != nil {
		return nil, nil, fe
	}
	end = cfg.Trace.Stage("sta")
	post, err := sta.Analyze(impl, cfg.Arch, prob, routes, sta.Options{ClockPeriod: clock})
	end()
	if err != nil {
		return nil, nil, flowErr(d, cfg, "sta", err)
	}
	rep.AvgTopSlack = post.AvgTopSlack
	rep.WorstSlack = post.WorstSlack
	rep.MaxArrival = post.MaxArrival

	// Post-layout power at the run's clock.
	if fe := stageFault(d, cfg, "power"); fe != nil {
		return nil, nil, fe
	}
	end = cfg.Trace.Stage("power")
	pw, err := power.Estimate(impl, cfg.Arch, prob, routes, power.Options{ClockPS: clock})
	end()
	if err == nil {
		rep.PowerUW = pw.TotalUW
	} else {
		return nil, nil, flowErr(d, cfg, "power", err)
	}
	if cfg.Trace != nil {
		rep.Stages = cfg.Trace.StageTimings()
		rep.Solver = cfg.Trace.SolverMetrics()
	}
	rep.Runtime = time.Since(start)
	return rep, art, nil
}

// key returns the chain key for a stage ("" when the prefix or stage
// is absent — the cache put becomes a no-op).
func (p *stagePrefix) key(stage string) string {
	if i := p.index(stage); i >= 0 {
		return p.chain[i].Key
	}
	return ""
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

// sortedKeys is shared by the table printers.
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
