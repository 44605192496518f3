package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/core"
	"vpga/internal/netlist"
	"vpga/internal/obs"
	"vpga/internal/route"
	"vpga/internal/rtl"
	"vpga/internal/sta"
)

// config sizes the workloads. fullConfig is what the benchmark
// measures; toyConfig runs the same code paths in well under a second
// each, for the package test.
type config struct {
	matrixSuite  func() bench.Suite
	matrixEffort int // annealing effort of paper-matrix cells; 0 = the flow default
	sweepDesign  func() bench.Design
	capacities   []int
	// Flow seeds come from per-workload pools 1..n. A pool about as
	// large as a run's op count makes every run cover nearly the same
	// seeds, so the seed mix does not move a run's median.
	matrixSeeds, sweepSeeds, clusterSeeds int
	setups                                int // set-ups per run; setup_s is their median
	svcDesigns                            []string
	svcSeeds                              int
	clusterReplays                        int // warm replays per cold cluster matrix
	clusterEffort                         int
	golden                                bool // check outputs against testdata/golden.json
}

var fullConfig = config{
	matrixSuite: func() bench.Suite {
		return bench.Suite{ALU: bench.ALU(12), Firewire: bench.Firewire(16), FPU: bench.FPU(12), Switch: bench.Switch(6, 12, 4)}
	},
	sweepDesign:    func() bench.Design { return bench.Switch(8, 16, 4) },
	capacities:     []int{4, 8, 16, 32},
	matrixSeeds:    8,
	sweepSeeds:     8,
	clusterSeeds:   24,
	setups:         9,
	svcDesigns:     []string{"alu", "firewire", "fpu", "switch", "fir"},
	svcSeeds:       4,
	clusterReplays: 24,
	clusterEffort:  3,
	golden:         true,
}

var toyConfig = config{
	matrixSuite:    bench.TestSuite,
	matrixEffort:   1,
	sweepDesign:    func() bench.Design { return bench.Switch(4, 8, 2) },
	capacities:     []int{4, 16},
	matrixSeeds:    2,
	sweepSeeds:     2,
	clusterSeeds:   2,
	setups:         2,
	svcDesigns:     []string{"alu"},
	svcSeeds:       1,
	clusterReplays: 2,
	clusterEffort:  1,
}

// flowSeed is the flow seed of a run's i-th op from a pool of n: the run
// seed picks where in the pool the run starts, and every op's output has
// a golden digest.
func flowSeed(n int, seed int64, i int) int64 {
	m := int64(n)
	return ((seed+int64(i))%m+m)%m + 1
}

// workload is one benchmark workload; README.md says why each exists.
type workload struct {
	name string
	run  func(ctx context.Context, r *run) error
}

var workloads = []workload{
	{"paper-matrix", runPaperMatrix},
	{"route-sweep", runRouteSweep},
	{"service-mix", runServiceMix},
	{"cluster-matrix", runClusterMatrix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// compileDesigns elaborates each design once: the front-end cost every
// flow workload's set-up pays.
func compileDesigns(ds ...bench.Design) error {
	for _, d := range ds {
		if _, err := rtl.Compile(d.RTL); err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
	}
	return nil
}

// traceStages copies one obs tracer's stage spans into the run's span
// log under op; epoch is when the tracer was created.
func (r *run) traceStages(tr *obs.Tracer, epoch time.Time, op int) {
	for _, run := range tr.Runs() {
		for _, s := range run.Spans() {
			start := epoch.Add(s.Start)
			r.child(op, s.Stage, start, start.Add(s.Dur))
		}
	}
}

// checkEquivalent elaborates the design's RTL and checks the final
// implementation netlist against it by random simulation.
func checkEquivalent(d bench.Design, impl *netlist.Netlist, seed int64) error {
	ref, err := rtl.Compile(d.RTL)
	if err != nil {
		return err
	}
	return netlist.Equivalent(ref, impl, 8, 4, seed+77)
}

// runPaperMatrix runs the Table 1/2 experiment back to back, one matrix
// per op, each with the next seed of the pool. A traced run traces
// every other op, so the ops between measure the tracing overhead.
func runPaperMatrix(ctx context.Context, r *run) error {
	suite, done, err := setup(r, func() (bench.Suite, func(), error) {
		s := r.cfg.matrixSuite()
		return s, func() {}, compileDesigns(s.All()...)
	})
	defer done()
	if err != nil {
		return err
	}
	type out struct {
		id   int
		seed int64
		m    *core.Matrix
	}
	var (
		outs  []out // written by the one loop goroutine only
		split latencySplit
	)
	r.begin()
	r.loop(1, func(i int) {
		seed := flowSeed(r.cfg.matrixSeeds, r.seed, i)
		traced := r.traced && i%2 == 0
		var (
			tr    *obs.Tracer
			epoch = time.Now()
			m     *core.Matrix
		)
		if traced {
			tr = obs.NewTracer()
		}
		id, err := r.op("matrix", func(int) error {
			var err error
			m, err = core.RunMatrix(ctx, suite, core.MatrixOptions{
				Seed: seed, PlaceEffort: r.cfg.matrixEffort, Parallel: 2, Trace: tr,
			})
			if err == nil && len(m.Errors) > 0 {
				err = m.Errors[0]
			}
			return err
		})
		if err != nil {
			return
		}
		split.add(i, traced, time.Since(epoch))
		if traced {
			r.layers.addOp()
			r.traceStages(tr, epoch, id)
			for _, byArch := range m.Reports {
				for _, byFlow := range byArch {
					for _, rep := range byFlow {
						r.layers.addReport(rep)
					}
				}
			}
		}
		outs = append(outs, out{id, seed, m})
	})
	r.finish()
	split.report(r)

	seen := map[int64]string{}
	var payloads [][]byte
	for _, o := range outs {
		o.m.StripMetrics()
		enc, err := json.Marshal(o.m.Reports)
		if err != nil {
			return err
		}
		r.checkDigest(o.id, "paper-matrix", o.seed, digest(enc), seen)
		payloads = append(payloads, enc)
	}
	if !r.traced || len(outs) == 0 {
		return nil
	}
	// Replay one cell through core.Run to get its artifacts: the report
	// must match the matrix cell, and the implementation must still
	// compute the RTL's function.
	o := outs[0]
	d := suite.All()[int(o.seed)%4]
	res, err := core.Run(ctx, core.FlowRequest{RTL: d.RTL, Name: d.Name, Flow: "a",
		Seed: o.seed, PlaceEffort: r.cfg.matrixEffort}, core.ExecOptions{WantArtifacts: true})
	if err != nil {
		return fmt.Errorf("replay %s: %w", d.Name, err)
	}
	res.Report.Reclock(1.2 * res.Report.MaxArrival)
	res.Report.StripMetrics()
	if a, b := mustJSON(res.Report), mustJSON(o.m.Get(d.Name, cells.GranularPLB().Name, core.FlowA)); !bytes.Equal(a, b) {
		r.fail(o.id, "replayed %s cell does not reproduce the matrix report", d.Name)
	}
	if err := checkEquivalent(d, res.Artifacts.Impl, o.seed); err != nil {
		r.fail(o.id, "%s implementation not equivalent to its RTL: %v", d.Name, err)
	}
	reqs := matrixRequests(suite, o.seed, r.cfg.matrixEffort)
	if err := r.layers.timeKeys(reqs); err != nil {
		return err
	}
	return r.timeStore(payloads)
}

// latencySplit separates a traced run's traced and untraced op
// latencies, leaving out the first op (cold caches), to measure the
// tracing overhead within one process.
type latencySplit struct{ plain, traced []time.Duration }

func (s *latencySplit) add(i int, traced bool, d time.Duration) {
	switch {
	case i == 0:
	case traced:
		s.traced = append(s.traced, d)
	default:
		s.plain = append(s.plain, d)
	}
}

func (s *latencySplit) report(r *run) {
	if len(s.plain) > 0 && len(s.traced) > 0 {
		r.detail("trace_overhead_frac", float64(medianDur(s.traced))/float64(medianDur(s.plain))-1)
	}
}

// matrixRequests are a matrix's sixteen cells as flow requests (clock
// auto-derived), for timing key derivation on the workload's inputs.
func matrixRequests(s bench.Suite, seed int64, effort int) []core.FlowRequest {
	var out []core.FlowRequest
	for _, d := range s.All() {
		for _, arch := range core.MatrixArchKinds() {
			for _, flow := range core.MatrixFlows() {
				out = append(out, core.FlowRequest{RTL: d.RTL, Name: d.Name,
					Arch: core.ArchSpec{Kind: arch}, Flow: flow, Seed: seed, PlaceEffort: effort})
			}
		}
	}
	return out
}

// runRouteSweep runs the routing-architecture sweep back to back. A
// traced run replays every other sweep from public calls instead — one
// core.Run for the placed and packed design, then route.Route and
// sta.Analyze per channel width — so the capacity points get spans of
// their own; the plain sweeps between measure what the replay costs.
func runRouteSweep(ctx context.Context, r *run) error {
	d, done, err := setup(r, func() (bench.Design, func(), error) {
		d := r.cfg.sweepDesign()
		return d, func() {}, compileDesigns(d)
	})
	defer done()
	if err != nil {
		return err
	}
	arch := cells.GranularPLB()
	type out struct {
		id   int
		seed int64
		pts  []core.RoutingPoint
	}
	var (
		mu    sync.Mutex // guards the four below
		outs  []out
		impl  *netlist.Netlist
		iseed int64
		split latencySplit
	)
	r.begin()
	// Two sweeps run at a time, one per core: a sweep is single-threaded.
	r.loop(2, func(i int) {
		seed := flowSeed(r.cfg.sweepSeeds, r.seed, i)
		traced := r.traced && i%2 == 0
		var pts []core.RoutingPoint
		start := time.Now()
		id, err := r.op("sweep", func(id int) error {
			if !traced {
				var err error
				pts, err = core.RunRoutingSweep(ctx, d, arch, r.cfg.capacities, core.SweepOptions{Seed: seed})
				return err
			}
			var (
				art *core.Artifacts
				err error
			)
			pts, art, err = r.replaySweep(ctx, d, arch, seed, id)
			if art != nil {
				mu.Lock()
				if impl == nil {
					impl, iseed = art.Impl, seed
				}
				mu.Unlock()
			}
			return err
		})
		if err != nil {
			return
		}
		if traced {
			r.layers.addOp()
		}
		mu.Lock()
		defer mu.Unlock()
		split.add(i, traced, time.Since(start))
		outs = append(outs, out{id, seed, pts})
	})
	r.finish()
	split.report(r)
	sort.Slice(outs, func(a, b int) bool { return outs[a].id < outs[b].id })

	seen := map[int64]string{}
	var payloads [][]byte
	for _, o := range outs {
		enc := mustJSON(o.pts)
		r.checkDigest(o.id, "route-sweep", o.seed, digest(enc), seen)
		payloads = append(payloads, enc)
	}
	if !r.traced || len(outs) == 0 {
		return nil
	}
	if impl != nil {
		if err := checkEquivalent(d, impl, iseed); err != nil {
			r.fail(outs[0].id, "%s implementation not equivalent to its RTL: %v", d.Name, err)
		}
	}
	req := core.FlowRequest{RTL: d.RTL, Name: d.Name, Seed: outs[0].seed}
	if err := r.layers.timeKeys([]core.FlowRequest{req}); err != nil {
		return err
	}
	return r.timeStore(payloads)
}

// replaySweep is core.RunRoutingSweep rebuilt from public calls, with
// every layer timed as a child of op.
func (r *run) replaySweep(ctx context.Context, d bench.Design, arch *cells.PLBArch, seed int64, op int) ([]core.RoutingPoint, *core.Artifacts, error) {
	start := time.Now()
	tr := obs.NewTracer()
	fr := tr.NewRun("routing/" + d.Name)
	res, err := core.Run(ctx, core.FlowRequest{RTL: d.RTL, Name: d.Name, Seed: seed},
		core.ExecOptions{Trace: fr, WantArtifacts: true})
	fr.Close()
	if err != nil {
		return nil, nil, err
	}
	r.traceStages(tr, start, op)
	r.layers.addReport(res.Report)
	art := res.Artifacts
	pool := route.NewPool()
	var pts []core.RoutingPoint
	for _, c := range r.cfg.capacities {
		t0 := time.Now()
		routes, err := route.Route(art.Prob, route.Options{Capacity: c, Ctx: ctx, Pool: pool})
		if err != nil {
			return nil, art, fmt.Errorf("capacity %d: %w", c, err)
		}
		t1 := time.Now()
		post, err := sta.Analyze(art.Impl, arch, art.Prob, routes, sta.Options{ClockPeriod: res.Report.ClockPeriod})
		if err != nil {
			return nil, art, err
		}
		t2 := time.Now()
		ta := routes.AssignTracks()
		t3 := time.Now()
		r.child(op, "route", t0, t1)
		r.child(op, "sta", t1, t2)
		r.child(op, "route", t2, t3)
		r.layers.addTime("route", t1.Sub(t0)+t3.Sub(t2))
		r.layers.addTime("sta", t2.Sub(t1))
		r.layers.addRoute(routes.Iterations)
		pts = append(pts, core.RoutingPoint{
			Capacity: c, Wirelength: routes.Total, Overflow: routes.Overflow,
			RoutingVias: ta.RoutingVias, PeakTrack: ta.PeakTrack, AvgTopSlack: post.AvgTopSlack,
		})
	}
	r.layers.addWall(time.Since(start) - res.Report.Runtime)
	return pts, art, nil
}

// checkDigest compares an op's output digest with the golden digest for
// its flow seed, and with any earlier op of the same seed in the run.
func (r *run) checkDigest(id int, w string, seed int64, got string, seen map[int64]string) {
	if prev, ok := seen[seed]; ok && prev != got {
		r.fail(id, "seed %d output differs from an earlier op with the same seed", seed)
	}
	seen[seed] = got
	if !r.cfg.golden {
		return
	}
	if want := goldenDigests[w][strconv.FormatInt(seed, 10)]; want != got {
		r.fail(id, "seed %d output digest %.12s, golden %.12s", seed, got, want)
	}
}

func mustJSON(v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		panic(err) // only called on types that always encode
	}
	return enc
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
