package core

import (
	"context"
	"fmt"
	"strings"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/route"
	"vpga/internal/sta"
)

// RoutingPoint is one sample of the routing-architecture sweep.
type RoutingPoint struct {
	Capacity    int
	Wirelength  float64
	Overflow    int
	RoutingVias int
	PeakTrack   int
	AvgTopSlack float64
}

// RunRoutingSweep explores the fabric's routing architecture — the
// paper's closing future work ("future work will also focus on
// exploring regular routing architectures for the VPGA fabric"): the
// design is placed and packed once, then routed under a range of
// per-channel track capacities, reporting congestion, detour cost and
// post-layout timing at each point. The capacity points share one
// placement problem, so they route sequentially; opts.Parallel has no
// effect here.
func RunRoutingSweep(ctx context.Context, d bench.Design, arch *cells.PLBArch, capacities []int, opts SweepOptions) ([]RoutingPoint, error) {
	run := opts.Trace.NewRun("routing/" + d.Name + "/" + arch.Name)
	defer run.Close()
	// One pool serves the flow run and every capacity point: the grid
	// shape never changes, so all routes after the first reuse one
	// ready-sized State.
	pool := route.NewPool()
	rep, art, err := RunFlow(ctx, d, Config{Arch: arch, Flow: FlowB, Seed: opts.Seed,
		PlaceWorkers: opts.PlaceWorkers, Trace: run,
		Stages: opts.Stages, routePool: pool})
	if err != nil {
		return nil, err
	}
	var out []RoutingPoint
	for _, cap := range capacities {
		routes, err := route.Route(art.Prob, route.Options{Capacity: cap, Ctx: ctx, Pool: pool})
		if err != nil {
			return nil, fmt.Errorf("routing sweep capacity %d: %w", cap, err)
		}
		post, err := sta.Analyze(art.Impl, arch, art.Prob, routes, sta.Options{ClockPeriod: rep.ClockPeriod})
		if err != nil {
			return nil, err
		}
		ta := routes.AssignTracks()
		out = append(out, RoutingPoint{
			Capacity:    cap,
			Wirelength:  routes.Total,
			Overflow:    routes.Overflow,
			RoutingVias: ta.RoutingVias,
			PeakTrack:   ta.PeakTrack,
			AvgTopSlack: post.AvgTopSlack,
		})
	}
	return out, nil
}

// FormatRoutingSweep renders sweep results.
func FormatRoutingSweep(design string, pts []RoutingPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Routing-architecture sweep on %s (Sec. 4 future work):\n", design)
	fmt.Fprintf(&sb, "  %9s %12s %9s %13s %10s %11s\n",
		"tracks", "wirelength", "overflow", "routing vias", "peak trk", "avg slack")
	for _, p := range pts {
		fmt.Fprintf(&sb, "  %9d %12.0f %9d %13d %10d %11.1f\n",
			p.Capacity, p.Wirelength, p.Overflow, p.RoutingVias, p.PeakTrack, p.AvgTopSlack)
	}
	return sb.String()
}
