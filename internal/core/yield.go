package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/defect"
	"vpga/internal/obs"
	"vpga/internal/route"
)

// YieldPoint is the outcome of one defect map in a yield sweep.
type YieldPoint struct {
	MapSeed     int64
	Defects     defect.Counts
	Routed      bool
	Escalations int     // repair rungs climbed (0 = clean first try)
	Wirelength  float64 // of the successful attempt, 0 when unrouted
	Overflow    int
	Err         string // failure message when Routed is false
}

// YieldOptions configures a defect-yield sweep.
type YieldOptions struct {
	Rate         float64 // defect rate per fabric tile
	Maps         int     // number of defect maps (seeds BaseSeed..BaseSeed+Maps-1)
	BaseSeed     int64   // first defect-map seed
	FlowSeed     int64   // flow seed shared by all maps
	RepairBudget int     // 0 = DefaultRepairBudget
	Parallel     int     // 0 = GOMAXPROCS
	Progress     func(string)
	// Trace records every map's flow run (stage spans, solver counters,
	// repair attempts); nil disables tracing.
	Trace *obs.Tracer
}

// YieldResult aggregates a defect-yield sweep over many maps.
type YieldResult struct {
	Design string
	Arch   string
	Rate   float64
	Points []YieldPoint // indexed by map, deterministic per seed
	Budget int
}

// DefectYield runs one (design, arch) flow across opts.Maps independent
// defect maps at a fixed defect rate, each through the bounded repair
// ladder, and reports how many maps routed at each escalation depth —
// the fabric-yield experiment. Maps run concurrently with
// deterministic, map-indexed results.
func DefectYield(ctx context.Context, d bench.Design, arch *cells.PLBArch, opts YieldOptions) (*YieldResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Maps <= 0 {
		opts.Maps = 50
	}
	budget := opts.RepairBudget
	if budget == 0 {
		budget = DefaultRepairBudget
	}
	par := opts.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	res := &YieldResult{Design: d.Name, Arch: arch.Name, Rate: opts.Rate,
		Points: make([]YieldPoint, opts.Maps), Budget: budget}
	// Every map's runs (repair escalations included) share one
	// router-state pool; reuse never changes which maps route.
	pool := route.NewPool()

	var (
		sem    = make(chan struct{}, par)
		mu     sync.Mutex // guards Points
		progMu sync.Mutex // serializes Progress, independent of mu
		wg     sync.WaitGroup
	)
	for i := 0; i < opts.Maps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			seed := opts.BaseSeed + int64(i)
			dm := defect.New(seed, opts.Rate)
			pt := YieldPoint{MapSeed: seed, Defects: dm.Counts()}
			if ctx.Err() == nil {
				run := opts.Trace.NewRun(fmt.Sprintf("%s/%s/map%d", d.Name, arch.Name, i))
				rep, _, err := supervisedRun(ctx, d, Config{
					Arch: arch, Flow: FlowB, Seed: opts.FlowSeed,
					Defects: dm, RepairBudget: budget, Trace: run,
					routePool: pool,
				}, 0)
				run.Close()
				if err != nil {
					pt.Err = err.Error()
				} else {
					pt.Routed = true
					pt.Escalations = rep.Escalations
					pt.Wirelength = rep.Wirelength
					pt.Overflow = rep.Overflow
				}
			} else {
				pt.Err = ctx.Err().Error()
			}
			mu.Lock()
			res.Points[i] = pt
			mu.Unlock()
			// The Progress callback runs outside mu (progMu only orders
			// concurrent lines), so a slow callback cannot stall workers
			// storing their points.
			if opts.Progress != nil {
				status := "routed"
				if !pt.Routed {
					status = "FAILED"
				}
				line := fmt.Sprintf("map %3d (seed %d): %d defects, %s after %d escalation(s)",
					i, seed, pt.Defects.Total(), status, pt.Escalations)
				progMu.Lock()
				opts.Progress(line)
				progMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return res, ctx.Err()
}

// Yield is the fraction of maps that routed within the repair budget.
func (r *YieldResult) Yield() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	n := 0
	for _, p := range r.Points {
		if p.Routed {
			n++
		}
	}
	return float64(n) / float64(len(r.Points))
}

// Table renders the yield/repair summary: the fraction of defect maps
// routed at each escalation depth, plus the overall yield.
func (r *YieldResult) Table() string {
	var sb strings.Builder
	byEsc := make([]int, r.Budget+1)
	failed := 0
	for _, p := range r.Points {
		if p.Routed {
			byEsc[p.Escalations]++
		} else {
			failed++
		}
	}
	fmt.Fprintf(&sb, "Defect yield: %s on %s, rate %.4f, %d maps, repair budget %d\n",
		r.Design, r.Arch, r.Rate, len(r.Points), r.Budget)
	fmt.Fprintf(&sb, "  %-28s %6s %8s\n", "repair outcome", "maps", "frac")
	total := float64(len(r.Points))
	for esc, n := range byEsc {
		label := fmt.Sprintf("routed at %d escalation(s)", esc)
		if esc == 0 {
			label = "routed clean (0 escalations)"
		}
		fmt.Fprintf(&sb, "  %-28s %6d %7.1f%%\n", label, n, 100*float64(n)/total)
	}
	fmt.Fprintf(&sb, "  %-28s %6d %7.1f%%\n", "unrouted (budget exhausted)", failed, 100*float64(failed)/total)
	fmt.Fprintf(&sb, "  overall yield: %.1f%%\n", 100*r.Yield())
	return sb.String()
}
