package qor

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"vpga/internal/core"
	"vpga/internal/obs"
)

// GateDesigns and GateArchs span the gate matrix: the same
// 4-benchmark x 2-architecture x 2-flow space as the paper's Tables
// 1 and 2, expressed as FlowRequests so every record carries the
// request cache key the daemon would use.
var (
	GateDesigns = []string{"alu", "firewire", "fpu", "switch"}
	GateArchs   = []string{"granular", "lut"}
	GateFlows   = []string{"a", "b"}
)

// GateOptions parameterizes the gate matrix.
type GateOptions struct {
	// Scale is "test" (default) or "paper".
	Scale string
	Seed  int64
	// PlaceEffort defaults to 3 — the bench-harness setting, fast and
	// exactly as deterministic as the default.
	PlaceEffort int
	// Parallel bounds concurrent runs (0 = GOMAXPROCS). Records are
	// identical at any width.
	Parallel int
	// Trace, when set, records every gate run on the tracer (one worker
	// row per pool slot), for the Chrome trace artifact.
	Trace *obs.Tracer
	// GitRev/Now stamp provenance onto the records ("" / zero = unset).
	GitRev string
	Now    time.Time
}

func (o GateOptions) withDefaults() GateOptions {
	if o.Scale == "" {
		o.Scale = "test"
	}
	if o.PlaceEffort == 0 {
		o.PlaceEffort = 3
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// GateRequests enumerates the gate matrix as canonical FlowRequests,
// in deterministic (design, arch, flow) order.
func GateRequests(opts GateOptions) []core.FlowRequest {
	opts = opts.withDefaults()
	var reqs []core.FlowRequest
	for _, d := range GateDesigns {
		for _, a := range GateArchs {
			for _, f := range GateFlows {
				reqs = append(reqs, core.FlowRequest{
					Design: d, Scale: opts.Scale,
					Arch: core.ArchSpec{Kind: a}, Flow: f,
					Seed: opts.Seed, PlaceEffort: opts.PlaceEffort,
				})
			}
		}
	}
	return reqs
}

// RunGate executes the gate matrix on a bounded worker pool and
// returns one Record per cell, sorted by ID. Each cell runs as an
// independent, request-shaped flow (the same runs POST /v1/runs would
// execute, carrying the same cache keys), traced so the records hold
// per-stage seconds and moves/s. The first failure aborts the gate:
// a cell that cannot run is itself a regression.
func RunGate(ctx context.Context, opts GateOptions) ([]Record, error) {
	opts = opts.withDefaults()
	reqs := GateRequests(opts)
	recs := make([]Record, len(reqs))
	errs := make([]error, len(reqs))
	sem := make(chan struct{}, opts.Parallel)
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req core.FlowRequest) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			key, err := req.CacheKey()
			if err != nil {
				errs[i] = err
				return
			}
			n := req.Normalize()
			run := opts.Trace.NewRun(n.Design + "/" + n.Arch.Kind + "/flow " + n.Flow)
			defer run.Close()
			res, err := core.Run(ctx, req, core.ExecOptions{Trace: run})
			if err != nil {
				errs[i] = err
				return
			}
			recs[i] = FromReport(res.Report, n.Seed, key)
		}(i, req)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("qor: gate run: %w", err)
		}
	}
	if !opts.Now.IsZero() || opts.GitRev != "" {
		now := opts.Now
		if now.IsZero() {
			now = time.Now()
		}
		for i := range recs {
			recs[i].Stamp(now, opts.GitRev)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID() < recs[j].ID() })
	return recs, nil
}
