package core

import (
	"context"
	"errors"

	"vpga/internal/bench"
	"vpga/internal/route"
)

// DefaultRepairBudget is the number of escalations RunFlowRepair tries
// after the baseline attempt before giving up on a defect map.
const DefaultRepairBudget = 3

// AttemptRecord documents one rung of the repair ladder for the report.
type AttemptRecord struct {
	Attempt       int     // 0 = baseline, 1.. = escalations
	Action        string  // "baseline", "reseed", "widen-channels", "relax-clock"
	Seed          int64   // flow seed used for this attempt
	CapacityScale float64 // routing capacity multiplier (0 = none)
	CellsScale    float64 // routing-grid coarsening factor (0 = none)
	ClockScale    float64 // clock-period multiplier (0 = none)
	Err           string  // failure message, empty on the winning attempt
}

// escalate returns the config for repair rung attempt >= 1, derived
// deterministically from the baseline config. The ladder is:
//
//	1: reseed placement         (fresh anneal trajectory)
//	2: widen channels x1.5      (coarser grid of fatter channels —
//	   resamples the defect map, dissolving topological cuts)
//	3: relax clock + widen x2   (accept slower timing to close the map)
//
// Each rung also reseeds, so every attempt explores a fresh placement.
func escalate(cfg Config, attempt int) (Config, AttemptRecord) {
	out := cfg
	out.Seed = cfg.Seed + int64(attempt)*1009
	rec := AttemptRecord{Attempt: attempt, Seed: out.Seed}
	switch {
	case attempt <= 1:
		rec.Action = "reseed"
	case attempt == 2:
		rec.Action = "widen-channels"
		out.RouteCapacityScale = scaleOr1(cfg.RouteCapacityScale) * 1.5
		out.RouteCellsScale = scaleOr1(cfg.RouteCellsScale) * 1.5
	default:
		rec.Action = "relax-clock"
		out.RouteCapacityScale = scaleOr1(cfg.RouteCapacityScale) * 2.0
		out.RouteCellsScale = scaleOr1(cfg.RouteCellsScale) * 2.0
		if cfg.ClockPeriod > 0 {
			out.ClockPeriod = cfg.ClockPeriod * 1.25
			rec.ClockScale = 1.25
		}
	}
	rec.CapacityScale = out.RouteCapacityScale
	rec.CellsScale = out.RouteCellsScale
	return out, rec
}

func scaleOr1(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

// repairable reports whether a failure is worth escalating: physical
// failures (routing congestion, packing, placement) can be repaired by
// reseeding or widening; front-end failures (bad RTL, broken verify)
// and context expiry cannot.
func repairable(err error) bool {
	var re *route.RouteError
	if errors.As(err, &re) {
		return true
	}
	var fe *FlowError
	if errors.As(err, &fe) {
		switch fe.Stage {
		case "place", "route", "pack":
			return true
		}
	}
	return false
}

// RunFlowRepair runs the flow with the bounded-escalation repair loop:
// on a repairable failure it climbs the ladder (reseed, widen channels,
// relax clock) up to cfg.RepairBudget rungs, recording every attempt in
// the winning report. The escalation schedule depends only on (cfg,
// attempt), so repair is deterministic per defect map.
func RunFlowRepair(ctx context.Context, d bench.Design, cfg Config) (*Report, error) {
	return runFlowRepairWith(ctx, d, cfg, func(ctx context.Context, d bench.Design, cfg Config) (*Report, error) {
		rep, _, err := RunFlow(ctx, d, cfg)
		return rep, err
	})
}

// runFlowRepairWith is RunFlowRepair with an injectable runner, so the
// ladder is unit-testable without real flow runs.
func runFlowRepairWith(ctx context.Context, d bench.Design, cfg Config,
	run func(context.Context, bench.Design, Config) (*Report, error)) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	budget := cfg.RepairBudget
	if budget == 0 {
		budget = DefaultRepairBudget
	} else if budget < 0 {
		budget = 0 // baseline attempt only, no escalations
	}
	var attempts []AttemptRecord
	var lastErr error
	for attempt := 0; attempt <= budget; attempt++ {
		acfg := cfg
		rec := AttemptRecord{Attempt: 0, Action: "baseline", Seed: cfg.Seed, CapacityScale: cfg.RouteCapacityScale}
		if attempt > 0 {
			acfg, rec = escalate(cfg, attempt)
		}
		rep, err := run(ctx, d, acfg)
		if err == nil {
			attempts = append(attempts, rec)
			cfg.Trace.Attempt(rec.Attempt, rec.Action, "")
			rep.Attempts = attempts
			rep.Escalations = attempt
			if cfg.Trace != nil {
				// The winning attempt's metrics were snapshotted inside
				// RunFlow before this attempt event existed; refresh so the
				// report sees the whole ladder (failed rungs included).
				rep.Stages = cfg.Trace.StageTimings()
				rep.Solver = cfg.Trace.SolverMetrics()
			}
			return rep, nil
		}
		lastErr = err
		rec.Err = err.Error()
		attempts = append(attempts, rec)
		cfg.Trace.Attempt(rec.Attempt, rec.Action, rec.Err)
		if ctx.Err() != nil || !repairable(err) {
			break
		}
	}
	fe := &FlowError{Design: d.Name, Flow: cfg.Flow.String(), Stage: "repair",
		Attempt: len(attempts) - 1, Err: lastErr}
	if cfg.Arch != nil {
		fe.Arch = cfg.Arch.Name
	}
	if err := ctx.Err(); err != nil {
		fe.Stage = ctxStage(err)
	} else if !repairable(lastErr) {
		// A non-physical failure isn't a repair exhaustion; surface the
		// underlying stage error directly when it is already structured.
		var inner *FlowError
		if errors.As(lastErr, &inner) {
			return nil, inner
		}
	}
	return nil, fe
}
