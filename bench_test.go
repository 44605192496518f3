// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section, plus micro-benchmarks for every
// substrate. Each experiment benchmark reports the headline figures of
// merit via b.ReportMetric, so `go test -bench=. -benchmem` regenerates
// the paper's results on the miniature suite; run `cmd/paper -scale
// paper` for the full-size designs (documented in EXPERIMENTS.md).
package vpga

import (
	"context"
	"runtime"
	"testing"
	"time"

	"vpga/internal/aig"
	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/compact"
	"vpga/internal/core"
	"vpga/internal/flowmap"
	"vpga/internal/logic"
	"vpga/internal/pack"
	"vpga/internal/place"
	"vpga/internal/route"
	"vpga/internal/rtl"
	"vpga/internal/sta"
	"vpga/internal/techmap"
)

// BenchmarkFig2FunctionClassification regenerates the Section 2.1 /
// Figure 2 analysis: the 256-function S3-feasibility classification.
func BenchmarkFig2FunctionClassification(b *testing.B) {
	var rep logic.Fig2Report
	for i := 0; i < b.N; i++ {
		rep = logic.AnalyzeFig2()
	}
	b.ReportMetric(float64(rep.PerSelectFeasible[0]), "S3-fixed-select-feasible")
	b.ReportMetric(float64(rep.Feasible), "S3-feasible")
	b.ReportMetric(float64(256-rep.Feasible), "S3-infeasible")
}

// BenchmarkFig3ModifiedS3Completeness checks the Figure 3 claim that
// the modified S3 cell implements all 256 3-input functions.
func BenchmarkFig3ModifiedS3Completeness(b *testing.B) {
	complete := false
	for i := 0; i < b.N; i++ {
		complete = logic.ModifiedS3Complete()
	}
	if !complete {
		b.Fatal("modified S3 incomplete")
	}
	b.ReportMetric(256, "functions-implemented")
}

// matrixOnce runs the Table 1/2 experiment once per benchmark
// iteration on the miniature suite, sequentially (Parallel: 1) so the
// trajectory of the experiment benchmarks stays comparable across
// machines; BenchmarkMatrixParallel tracks the parallel speedup.
func matrixOnce(b *testing.B) *core.Matrix {
	b.Helper()
	var m *core.Matrix
	for i := 0; i < b.N; i++ {
		var err error
		m, err = core.RunMatrix(context.Background(), bench.TestSuite(), core.MatrixOptions{Seed: 1, PlaceEffort: 3, Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkMatrixParallel runs the same matrix as the Table benchmarks
// on the bounded worker pool at full width. Reports are bit-identical
// to the sequential run; the ratio of this benchmark to
// BenchmarkTable1DieArea's ns/op is the parallel speedup.
func BenchmarkMatrixParallel(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		if _, err := core.RunMatrix(context.Background(), bench.TestSuite(), core.MatrixOptions{Seed: 1, PlaceEffort: 3, Parallel: par}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(par), "workers")
}

// BenchmarkTable1DieArea regenerates Table 1 (die area, 4 designs × 2
// architectures × 2 flows) and reports the paper's headline claim: the
// average die-area reduction of the granular PLB on datapath designs.
func BenchmarkTable1DieArea(b *testing.B) {
	m := matrixOnce(b)
	claims := m.DeriveClaims()
	b.Logf("\n%s", m.Table1())
	b.ReportMetric(100*claims.AvgDatapathDieReduction, "%datapath-die-reduction(paper~32)")
	b.ReportMetric(100*claims.MaxDatapathDieReduction, "%max-die-reduction(paper~40)")
	b.ReportMetric(claims.FirewireAreaRatio, "firewire-area-ratio(paper>1)")
}

// BenchmarkTable2Slack regenerates Table 2 (average slack over the
// top-10 critical paths) and reports the slack-improvement claims.
func BenchmarkTable2Slack(b *testing.B) {
	m := matrixOnce(b)
	claims := m.DeriveClaims()
	b.Logf("\n%s", m.Table2())
	b.ReportMetric(100*claims.AvgSlackImprovement, "%slack-improvement(paper~18)")
	b.ReportMetric(100*claims.AvgPerfDegradationReduction, "%degradation-reduction(paper~68)")
}

// BenchmarkCompactionAreaReduction measures the regularity-driven
// compaction step (experiment E4; the paper reports ~15% average gate
// -area reduction on its DC-mapped netlists).
func BenchmarkCompactionAreaReduction(b *testing.B) {
	suite := bench.TestSuite()
	total := 0.0
	n := 0
	for i := 0; i < b.N; i++ {
		total, n = 0, 0
		for _, d := range suite.All() {
			for _, arch := range []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()} {
				rep, _, err := core.RunFlow(context.Background(), d, core.Config{Arch: arch, Flow: core.FlowA, Seed: 1, PlaceEffort: 2})
				if err != nil {
					b.Fatal(err)
				}
				total += rep.CompactionReduction
				n++
			}
		}
	}
	b.ReportMetric(100*total/float64(n), "%area-reduction(paper~15)")
}

// BenchmarkFullAdderPacking exercises experiment E3: full adders
// extracted and packed one-per-PLB on the granular architecture.
func BenchmarkFullAdderPacking(b *testing.B) {
	d := bench.ALU(8)
	fas := 0
	for i := 0; i < b.N; i++ {
		rep, _, err := core.RunFlow(context.Background(), d, core.Config{Arch: cells.GranularPLB(), Flow: core.FlowB, Seed: 2, PlaceEffort: 2})
		if err != nil {
			b.Fatal(err)
		}
		fas = rep.FullAdders
	}
	b.ReportMetric(float64(fas), "full-adders")
}

// BenchmarkGranularitySweep runs the E8 architecture sweep.
func BenchmarkGranularitySweep(b *testing.B) {
	d := bench.ALU(8)
	var pts []core.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = core.RunGranularitySweep(context.Background(), d, core.DefaultSweepArchs(), core.SweepOptions{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	best, bestSlack := "", -1e18
	for _, p := range pts {
		if p.AvgTopSlack > bestSlack {
			best, bestSlack = p.Arch, p.AvgTopSlack
		}
	}
	b.Logf("best-performing architecture: %s (avg slack %.1f)", best, bestSlack)
	b.ReportMetric(float64(len(pts)), "architectures")
}

// ---- substrate micro-benchmarks ----

func BenchmarkRTLElaborate(b *testing.B) {
	src := bench.ALU(16).RTL
	for i := 0; i < b.N; i++ {
		if _, err := rtl.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDesign(b *testing.B) *aig.Design {
	b.Helper()
	nl, err := rtl.Compile(bench.ALU(16).RTL)
	if err != nil {
		b.Fatal(err)
	}
	d, err := aig.FromNetlist(nl)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkAIGOptimize(b *testing.B) {
	d := benchDesign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := &aig.Design{G: d.G, PINames: d.PINames, PONames: d.PONames, FFNames: d.FFNames}
		cp.Optimize(3)
	}
}

func BenchmarkTechnologyMapping(b *testing.B) {
	d := benchDesign(b)
	d.Optimize(3)
	arch := cells.GranularPLB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := techmap.Map(d, arch, techmap.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompaction(b *testing.B) {
	d := benchDesign(b)
	d.Optimize(3)
	arch := cells.GranularPLB()
	mapped, err := techmap.Map(d, arch, techmap.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compact.Run(mapped.Netlist, arch); err != nil {
			b.Fatal(err)
		}
	}
}

func placedProblem(b *testing.B) (*place.Problem, *cells.PLBArch, *aig.Design) {
	b.Helper()
	d := benchDesign(b)
	d.Optimize(3)
	arch := cells.GranularPLB()
	mapped, err := techmap.Map(d, arch, techmap.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cres, err := compact.Run(mapped.Netlist, arch)
	if err != nil {
		b.Fatal(err)
	}
	prob, err := place.Build(cres.Netlist, place.ArchArea(arch), place.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return prob, arch, d
}

func BenchmarkPlacementAnneal(b *testing.B) {
	prob, _, _ := placedProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.Anneal(place.Options{Seed: int64(i), MovesPerObj: 4})
	}
}

// BenchmarkAnnealMoves measures the annealer's move throughput — the
// figure of merit of the incremental bounding-box cost kernel. The
// moves/s metric is the one to watch in the bench trajectory.
func BenchmarkAnnealMoves(b *testing.B) {
	prob, _, _ := placedProblem(b)
	// Drop the garbage earlier benchmarks left behind so the measured
	// region sees this kernel's own GC behavior, not theirs.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.Anneal(place.Options{Seed: int64(i), MovesPerObj: 8})
	}
	st := prob.Stats()
	b.ReportMetric(float64(st.Proposed)/b.Elapsed().Seconds(), "moves/s")
	b.ReportMetric(100*float64(st.Accepted)/float64(st.Proposed), "%accepted")
}

func BenchmarkGlobalRouting(b *testing.B) {
	prob, _, _ := placedProblem(b)
	prob.Anneal(place.Options{Seed: 1, MovesPerObj: 4})
	// Iterations share one State pool, as matrix and sweep runs do;
	// pooled results are bit-identical to cold ones.
	pool := route.NewPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Route(prob, route.Options{Pool: pool}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteCongested measures the router on the route-sweep
// workload's problem: Switch(8,16,4) packed once (granular, flow b,
// seed 1), then routed at capacities 4, 8, 16 and 32 per iteration
// through one pool. The narrow channels run every negotiation
// iteration, so the A* kernel dominates.
func BenchmarkRouteCongested(b *testing.B) {
	d := bench.Switch(8, 16, 4)
	res, err := core.Run(context.Background(), core.FlowRequest{RTL: d.RTL, Name: d.Name,
		Arch: core.ArchSpec{Kind: "granular"}, Flow: "b", Seed: 1}, core.ExecOptions{WantArtifacts: true})
	if err != nil {
		b.Fatal(err)
	}
	prob := res.Artifacts.Prob
	pool := route.NewPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range []int{4, 8, 16, 32} {
			if _, err := route.Route(prob, route.Options{Capacity: c, Pool: pool}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSTA(b *testing.B) {
	d := benchDesign(b)
	d.Optimize(3)
	arch := cells.GranularPLB()
	mapped, err := techmap.Map(d, arch, techmap.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cres, err := compact.Run(mapped.Netlist, arch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sta.Analyze(cres.Netlist, arch, nil, nil, sta.Options{ClockPeriod: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPack measures the packer: recursive quadrisection of a
// compacted, annealed test-scale ALU into the PLB array of each paper
// architecture. Every iteration restores the annealed positions that
// packing overwrites.
func BenchmarkPack(b *testing.B) {
	for _, arch := range []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()} {
		b.Run(arch.Name, func(b *testing.B) {
			nl, err := rtl.Compile(bench.TestSuite().ALU.RTL)
			if err != nil {
				b.Fatal(err)
			}
			d, err := aig.FromNetlist(nl)
			if err != nil {
				b.Fatal(err)
			}
			d.Optimize(2)
			mapped, err := techmap.Map(d, arch, techmap.Options{})
			if err != nil {
				b.Fatal(err)
			}
			cres, err := compact.Run(mapped.Netlist, arch)
			if err != nil {
				b.Fatal(err)
			}
			prob, err := place.Build(cres.Netlist, place.ArchArea(arch), place.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			prob.Anneal(place.Options{Seed: 1, MovesPerObj: 4})
			annealed := prob.Positions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prob.SetPositions(annealed); err != nil {
					b.Fatal(err)
				}
				if _, err := pack.Run(cres.Netlist, arch, prob, pack.Options{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMaxFlowKCut(b *testing.B) {
	b.ReportAllocs()
	// Dinic-based 3-feasible cut search over a mid-size cone, through
	// one finder reused across searches as compaction uses it.
	const n = 400
	fanins := make([][]int, n)
	for i := 8; i < n; i++ {
		fanins[i] = []int{i % 8, i - 3, i - 7}
	}
	isLeaf := func(i int) bool { return i < 8 }
	finder := flowmap.NewCutFinder(fanins)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finder.Find(n-1, 3, 64, isLeaf)
	}
}

func BenchmarkNPNCanon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logic.NPNCanon(logic.NewTT(3, uint64(i)&255))
	}
}

// BenchmarkRoutingArchitectureSweep runs the Sec. 4 routing-resource
// exploration: overflow and timing versus per-channel track capacity.
func BenchmarkRoutingArchitectureSweep(b *testing.B) {
	var pts []core.RoutingPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = core.RunRoutingSweep(context.Background(), bench.ALU(8), cells.GranularPLB(), []int{4, 8, 16, 32}, core.SweepOptions{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts[0].Overflow), "overflow-at-4-tracks")
	b.ReportMetric(float64(pts[len(pts)-1].Overflow), "overflow-at-32-tracks")
}

// BenchmarkStageCachePrefixDepth measures experiment E17: wall time of
// a flow run as a function of the shared-prefix depth served by the
// stage-granular build cache. Depth 0 is a cold run (all five stages
// computed); a clock retarget restores the chain through placement
// (depth 3, the expensive anneal skipped); a routing-knob variant
// restores through packing (depth 4); an identical rerun restores the
// full chain (depth 5). Each iteration uses a fresh cache directory so
// the depths stay exact across b.N.
func BenchmarkStageCachePrefixDepth(b *testing.B) {
	ctx := context.Background()
	base := core.FlowRequest{Design: "alu", Arch: core.ArchSpec{Kind: "granular"},
		Flow: "b", Seed: 1, PlaceEffort: 3, ClockPeriod: 8000}
	retarget := base
	retarget.ClockPeriod = 9000

	restored := func(rep *core.Report) int {
		hits := 0
		for _, u := range rep.StageCache {
			if u.Hit {
				hits++
			}
		}
		return hits
	}
	var cold, depth3, depth4, depth5 time.Duration
	for i := 0; i < b.N; i++ {
		stages, err := OpenStageCache(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		timeReq := func(req core.FlowRequest, wantDepth int) time.Duration {
			start := time.Now()
			res, err := core.Run(ctx, req, core.ExecOptions{Stages: stages})
			elapsed := time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			if got := restored(res.Report); got != wantDepth {
				b.Fatalf("restored %d stages, want %d", got, wantDepth)
			}
			return elapsed
		}
		cold += timeReq(base, 0)
		depth3 += timeReq(retarget, 3)

		// Routing knobs live on Config (the repair ladder's widening
		// rungs), so the depth-4 point goes through RunFlow directly.
		d, cfg, err := base.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		cfg.RouteCapacityScale = 1.25
		cfg.Stages = stages
		start := time.Now()
		rep, _, err := core.RunFlow(ctx, d, cfg)
		depth4 += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if got := restored(rep); got != 4 {
			b.Fatalf("route-knob variant restored %d stages, want 4", got)
		}

		depth5 += timeReq(base, 5)
	}
	n := float64(b.N)
	ms := func(t time.Duration) float64 { return t.Seconds() * 1e3 / n }
	b.ReportMetric(ms(cold), "ms-cold")
	b.ReportMetric(ms(depth3), "ms-depth3(place)")
	b.ReportMetric(ms(depth4), "ms-depth4(pack)")
	b.ReportMetric(ms(depth5), "ms-depth5(full)")
	b.ReportMetric(cold.Seconds()/depth3.Seconds(), "x-speedup-depth3")
	b.ReportMetric(cold.Seconds()/depth5.Seconds(), "x-speedup-full")
}
