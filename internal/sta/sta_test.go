package sta

import (
	"testing"

	"vpga/internal/aig"
	"vpga/internal/cells"
	"vpga/internal/compact"
	"vpga/internal/logic"
	"vpga/internal/netlist"
	"vpga/internal/place"
	"vpga/internal/route"
	"vpga/internal/rtl"
	"vpga/internal/techmap"
)

// chainNetlist builds PI -> k ND3 stages -> FF -> PO using config
// types directly.
func chainNetlist(k int) *netlist.Netlist {
	nl := netlist.New("chain")
	a := nl.AddInput("a")
	cur := a
	for i := 0; i < k; i++ {
		cur = nl.AddGate("ND3", logic.TTNand2.Extend(3), cur, cur, cur)
	}
	ff := nl.AddDFF("r", cur)
	nl.AddOutput("y", ff)
	return nl
}

func TestChainArrival(t *testing.T) {
	arch := cells.GranularPLB()
	nl := chainNetlist(3)
	rep, err := Analyze(nl, arch, nil, nil, Options{ClockPeriod: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Each ND3 stage: 40 intrinsic + 2.5 drive × load. A stage feeding
	// the next ND3 drives all three of its input pins (3 × 2.5 fF =
	// 7.5 fF → 18.75 ps); the last stage feeds the FF (2.0 fF → 5 ps).
	want := 2*(40+2.5*7.5) + (40 + 2.5*2.0)
	ep := rep.MaxArrival
	if diff := ep - want; diff < -0.01 || diff > 0.01 {
		t.Fatalf("arrival = %v, want %v", ep, want)
	}
	// Slack at the FF endpoint = clock - setup - arrival.
	wantSlack := 1000 - SetupPS - want
	if diff := rep.WorstSlack - wantSlack; diff < -0.01 || diff > 0.01 {
		t.Fatalf("slack = %v, want %v", rep.WorstSlack, wantSlack)
	}
}

func TestFFLaunchDelay(t *testing.T) {
	arch := cells.GranularPLB()
	nl := netlist.New("ff2ff")
	a := nl.AddInput("a")
	ff1 := nl.AddDFF("r1", a)
	g := nl.AddGate("MX", logic.VarTT(1, 0), ff1)
	ff2 := nl.AddDFF("r2", g)
	nl.AddOutput("y", ff2)
	rep, err := Analyze(nl, arch, nil, nil, Options{ClockPeriod: 500})
	if err != nil {
		t.Fatal(err)
	}
	// Launch 80 + 2.5×(MX cap 2.0) = 85; MX stage 50 + 2.5×2.0 = 55.
	want := 85.0 + 55.0
	if d := rep.MaxArrival - want; d < -0.01 || d > 0.01 {
		t.Fatalf("reg-to-reg arrival = %v, want %v", rep.MaxArrival, want)
	}
}

func TestTopKAveraging(t *testing.T) {
	arch := cells.GranularPLB()
	// Parallel chains of different depth give distinct endpoint slacks.
	nl := netlist.New("multi")
	a := nl.AddInput("a")
	for i := 0; i < 12; i++ {
		cur := a
		for j := 0; j <= i; j++ {
			cur = nl.AddGate("ND3", logic.TTNand2.Extend(3), cur, cur, cur)
		}
		nl.AddOutput(nodeName("y", i), cur)
	}
	rep, err := Analyze(nl, arch, nil, nil, Options{ClockPeriod: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TopSlacks) != 10 {
		t.Fatalf("TopSlacks = %d entries, want 10", len(rep.TopSlacks))
	}
	for i := 1; i < len(rep.TopSlacks); i++ {
		if rep.TopSlacks[i] < rep.TopSlacks[i-1] {
			t.Fatal("TopSlacks not sorted worst-first")
		}
	}
	if rep.TopSlacks[0] != rep.WorstSlack {
		t.Fatal("WorstSlack mismatch")
	}
	sum := 0.0
	for _, s := range rep.TopSlacks {
		sum += s
	}
	if d := rep.AvgTopSlack - sum/10; d < -1e-9 || d > 1e-9 {
		t.Fatal("AvgTopSlack mismatch")
	}
}

func nodeName(base string, i int) string {
	return base + string(rune('a'+i))
}

func TestCriticalPathWalk(t *testing.T) {
	arch := cells.GranularPLB()
	nl := chainNetlist(4)
	rep, err := Analyze(nl, arch, nil, nil, Options{ClockPeriod: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CriticalPath) < 5 {
		t.Fatalf("critical path too short: %v", rep.CriticalPath)
	}
	// Arrivals must be non-decreasing along the path.
	for i := 1; i < len(rep.CriticalPath); i++ {
		if rep.CriticalPath[i].Arrival < rep.CriticalPath[i-1].Arrival-1e9 {
			t.Fatal("critical path arrivals decrease")
		}
	}
}

func TestPostLayoutTimingIsSlower(t *testing.T) {
	arch := cells.GranularPLB()
	src := `
module m(input clk, input [7:0] a, input [7:0] b, output [7:0] y);
  reg [7:0] r;
  always r <= a + b;
  assign y = r;
endmodule`
	nlr, err := rtl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := aig.FromNetlist(nlr)
	if err != nil {
		t.Fatal(err)
	}
	d.Optimize(2)
	mapped, err := techmap.Map(d, arch, techmap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := compact.Run(mapped.Netlist, arch)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := place.Build(cres.Netlist, place.ArchArea(arch), place.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	prob.Anneal(place.Options{Seed: 31, MovesPerObj: 4})
	routes, err := route.Route(prob, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := Analyze(cres.Netlist, arch, nil, nil, Options{ClockPeriod: 2000})
	if err != nil {
		t.Fatal(err)
	}
	post, err := Analyze(cres.Netlist, arch, prob, routes, Options{ClockPeriod: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if post.MaxArrival < pre.MaxArrival {
		t.Fatalf("post-layout arrival %v faster than pre-layout %v", post.MaxArrival, pre.MaxArrival)
	}
	if post.MaxArrival == pre.MaxArrival {
		t.Log("warning: wire parasitics added nothing (tiny design)")
	}
}

func TestNetWeightsAndCriticality(t *testing.T) {
	arch := cells.GranularPLB()
	nl := chainNetlist(6)
	prob, err := place.Build(nl, place.ArchArea(arch), place.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(nl, arch, nil, nil, Options{ClockPeriod: 400})
	if err != nil {
		t.Fatal(err)
	}
	ws := NetWeights(nl, prob, rep, 400, 5)
	if len(ws) != len(prob.Nets) {
		t.Fatal("weight vector length mismatch")
	}
	for _, w := range ws {
		if w < 1 || w > 5 {
			t.Fatalf("weight %v outside [1,5]", w)
		}
	}
	crit := ObjCriticality(nl, prob, rep, 400)
	for _, c := range crit {
		if c < 0 || c > 1+1e9 {
			t.Fatalf("criticality %v outside [0,1]", c)
		}
	}
}

// Endpoints with no timed element in their data cone (passthrough
// PI→PO pads) must not dilute the top-K slack pool with their
// clock-period "slacks".
func TestUnconstrainedEndpointFiltered(t *testing.T) {
	arch := cells.GranularPLB()
	nl := netlist.New("passthrough")
	a := nl.AddInput("a")
	// One real path: 3 ND3 stages to a PO.
	cur := a
	for i := 0; i < 3; i++ {
		cur = nl.AddGate("ND3", logic.TTNand2.Extend(3), cur, cur, cur)
	}
	nl.AddOutput("y", cur)
	// Nine passthrough pads wired straight to the input: before the fix
	// these flooded the top-10 pool with slack == clock period.
	for i := 0; i < 9; i++ {
		nl.AddOutput(nodeName("p", i), a)
	}
	rep, err := Analyze(nl, arch, nil, nil, Options{ClockPeriod: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TopSlacks) != 1 {
		t.Fatalf("TopSlacks has %d entries, want only the constrained endpoint", len(rep.TopSlacks))
	}
	if d := rep.AvgTopSlack - rep.WorstSlack; d < -1e-9 || d > 1e-9 {
		t.Fatalf("AvgTopSlack %v != the single constrained slack %v", rep.AvgTopSlack, rep.WorstSlack)
	}
	// The constrained endpoint's slack is well under the clock period;
	// an unfiltered average would sit near 2000.
	if rep.AvgTopSlack > 1950 {
		t.Fatalf("AvgTopSlack %v still diluted by unconstrained endpoints", rep.AvgTopSlack)
	}

	// A netlist with only passthrough endpoints falls back to the full
	// set instead of failing.
	nl2 := netlist.New("allpass")
	b := nl2.AddInput("b")
	nl2.AddOutput("q", b)
	rep2, err := Analyze(nl2, arch, nil, nil, Options{ClockPeriod: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.TopSlacks) != 1 || rep2.AvgTopSlack != 500 {
		t.Fatalf("all-passthrough fallback: %+v", rep2)
	}

	// A register latching a primary input is equally unconstrained.
	nl3 := netlist.New("ffpass")
	c := nl3.AddInput("c")
	ff := nl3.AddDFF("r", c)
	g := nl3.AddGate("ND3", logic.TTNand2.Extend(3), ff, ff, ff)
	nl3.AddOutput("z", g)
	rep3, err := Analyze(nl3, arch, nil, nil, Options{ClockPeriod: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.TopSlacks) != 1 {
		t.Fatalf("FF-passthrough not filtered: %d top slacks", len(rep3.TopSlacks))
	}
}

func TestNoEndpointsError(t *testing.T) {
	arch := cells.GranularPLB()
	nl := netlist.New("empty")
	nl.AddInput("a")
	if _, err := Analyze(nl, arch, nil, nil, Options{ClockPeriod: 100}); err == nil {
		t.Fatal("expected error for netlist without endpoints")
	}
}

func TestRepeaterModelCapsWireDelay(t *testing.T) {
	// Build two identical one-gate designs; route them on dies of very
	// different size by scaling positions, and check the long wire's
	// delay grows linearly (repeated model), not quadratically.
	arch := cells.GranularPLB()
	mk := func() (*netlist.Netlist, *place.Problem) {
		nl := netlist.New("w")
		a := nl.AddInput("a")
		g := nl.AddGate("MX", logic.VarTT(1, 0), a)
		nl.AddOutput("y", g)
		prob, err := place.Build(nl, place.ArchArea(arch), place.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		prob.W, prob.H = 400, 400
		return nl, prob
	}
	nl, prob := mk()
	// Stretch the gate to the far corner from the input pad.
	for i := range prob.Objs {
		if !prob.Objs[i].IsPad {
			prob.Objs[i].X, prob.Objs[i].Y = 395, 395
		}
	}
	routes, err := route.Route(prob, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(nl, arch, prob, routes, Options{ClockPeriod: 10000})
	if err != nil {
		t.Fatal(err)
	}
	// The ~790-unit route would be ~25 ns under pure Elmore
	// (0.008·L²); the repeated-wire model caps it near 2.4·L ≈ 1.9 ns.
	if rep.MaxArrival > 4000 {
		t.Fatalf("long-wire arrival %.0f ps: repeater model not applied", rep.MaxArrival)
	}
	if rep.MaxArrival < 500 {
		t.Fatalf("long-wire arrival %.0f ps implausibly fast", rep.MaxArrival)
	}
}

func TestSlackDifferencesClockInvariant(t *testing.T) {
	arch := cells.GranularPLB()
	nl := chainNetlist(4)
	a, err := Analyze(nl, arch, nil, nil, Options{ClockPeriod: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(nl, arch, nil, nil, Options{ClockPeriod: 2500})
	if err != nil {
		t.Fatal(err)
	}
	// Arrival-side quantities must be identical; slacks shift by the
	// clock delta.
	if a.MaxArrival != b.MaxArrival {
		t.Fatalf("arrival depends on clock: %v vs %v", a.MaxArrival, b.MaxArrival)
	}
	if d := (b.WorstSlack - a.WorstSlack) - 1500; d < -1e-9 || d > 1e-9 {
		t.Fatalf("slack did not shift by the clock delta: %v", b.WorstSlack-a.WorstSlack)
	}
}
