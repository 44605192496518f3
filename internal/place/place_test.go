package place

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vpga/internal/aig"
	"vpga/internal/cells"
	"vpga/internal/compact"
	"vpga/internal/netlist"
	"vpga/internal/rtl"
	"vpga/internal/techmap"
)

// mappedNetlist runs RTL through the flow front end onto the granular
// architecture.
func mappedNetlist(t *testing.T, src string) (*netlist.Netlist, *cells.PLBArch) {
	t.Helper()
	arch := cells.GranularPLB()
	nl, err := rtl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := aig.FromNetlist(nl)
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
	return cres.Netlist, arch
}

// buildProblem compiles RTL through the flow front end and builds a
// placement problem for the granular architecture.
func buildProblem(t *testing.T, src string, seed int64) (*Problem, *netlist.Netlist, *cells.PLBArch) {
	t.Helper()
	nl, arch := mappedNetlist(t, src)
	p, err := Build(nl, ArchArea(arch), Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p, nl, arch
}

const src = `
module m(input clk, input [7:0] a, input [7:0] b, input s, output [7:0] y);
  wire [7:0] sum = a + b;
  wire [7:0] lg = a ^ b;
  reg [7:0] r;
  always r <= s ? sum : lg;
  assign y = r;
endmodule`

func TestBuildProblem(t *testing.T) {
	p, nl, _ := buildProblem(t, src, 1)
	if len(p.Objs) == 0 || len(p.Nets) == 0 {
		t.Fatal("empty problem")
	}
	if p.W <= 0 || p.H <= 0 {
		t.Fatal("degenerate die")
	}
	// Every gate/DFF node maps to an object.
	for _, n := range nl.Nodes() {
		switch n.Kind {
		case netlist.KindGate, netlist.KindDFF:
			if p.ObjIndex(n.ID) < 0 {
				t.Fatalf("node %d (%s) unplaced", n.ID, n.Type)
			}
		}
	}
	// Pads are on the periphery.
	for _, o := range p.Objs {
		if !o.IsPad {
			continue
		}
		onEdge := o.X == 0 || o.Y == 0 || o.X == p.W || o.Y == p.H
		if !onEdge {
			t.Fatalf("pad %q at (%v,%v) not on periphery", o.Name, o.X, o.Y)
		}
	}
}

func TestGroupedNodesShareObject(t *testing.T) {
	p, nl, _ := buildProblem(t, src, 2)
	groups := map[int32][]int32{}
	for _, n := range nl.Nodes() {
		if n.Group != 0 {
			groups[n.Group] = append(groups[n.Group], p.ObjIndex(n.ID))
		}
	}
	if len(groups) == 0 {
		t.Skip("no FA macros in this design")
	}
	for g, objs := range groups {
		for _, o := range objs[1:] {
			if o != objs[0] {
				t.Fatalf("group %d split across objects %v", g, objs)
			}
		}
	}
}

func TestAnnealImprovesHPWL(t *testing.T) {
	p, _, _ := buildProblem(t, src, 3)
	before := p.HPWL()
	p.Anneal(Options{Seed: 3, MovesPerObj: 6})
	after := p.HPWL()
	if after >= before {
		t.Fatalf("annealing did not improve HPWL: %.1f -> %.1f", before, after)
	}
	// All objects inside the die.
	for _, o := range p.Objs {
		if o.X < 0 || o.X > p.W || o.Y < 0 || o.Y > p.H {
			t.Fatalf("object %q escaped the die", o.Name)
		}
	}
}

func TestRefineDoesNotWorsen(t *testing.T) {
	p, _, _ := buildProblem(t, src, 4)
	p.Anneal(Options{Seed: 4, MovesPerObj: 4})
	before := p.HPWL()
	p.Refine(0.05, 3, 99)
	after := p.HPWL()
	if after > before*1.0001 {
		t.Fatalf("refine worsened HPWL: %.1f -> %.1f", before, after)
	}
}

func TestNetWeights(t *testing.T) {
	p, _, _ := buildProblem(t, src, 6)
	base := p.HPWL()
	for i := range p.Nets {
		p.SetNetWeight(i, 2)
	}
	if got := p.HPWL(); got < 1.99*base || got > 2.01*base {
		t.Fatalf("weighted HPWL = %v, want ~%v", got, 2*base)
	}
}

func TestPadOnlyDesignRejected(t *testing.T) {
	nl := netlist.New("wire")
	nl.AddOutput("y", nl.AddInput("a"))
	if _, err := Build(nl, func(n *netlist.Node) float64 { return 1 }, Options{}); err == nil {
		t.Fatal("expected error for netlist with no placeable area")
	}
}

func TestForceDirectedImprovesHPWL(t *testing.T) {
	p, _, _ := buildProblem(t, src, 8)
	before := p.HPWL()
	p.ForceDirected(10)
	after := p.HPWL()
	if after >= before {
		t.Fatalf("force-directed placement did not improve HPWL: %.1f -> %.1f", before, after)
	}
	// Objects must stay inside the die.
	for _, o := range p.Objs {
		if o.X < 0 || o.X > p.W || o.Y < 0 || o.Y > p.H {
			t.Fatalf("object %q escaped the die", o.Name)
		}
	}
}

// checkBoxes asserts every cached net cost equals a scratch recompute
// bit for bit, every net of ≥ wideNet pins also its cached box, and
// that the cached total cost equals HPWL().
func checkBoxes(t *testing.T, p *Problem, when string) {
	t.Helper()
	total := 0.0
	for ni := range p.Nets {
		want := p.computeBox(int32(ni))
		if len(p.Nets[ni].Objs) >= wideNet && p.boxes[ni] != want {
			t.Fatalf("%s: net %d cached box %+v, scratch %+v", when, ni, p.boxes[ni], want)
		}
		if c := p.netW[ni] * want.hpwl(); p.boxCostW[ni] != c {
			t.Fatalf("%s: net %d cached cost %v, scratch %v", when, ni, p.boxCostW[ni], c)
		}
		total += p.boxCostW[ni]
	}
	if want := p.HPWL(); total != want {
		t.Fatalf("%s: cached HPWL %v, scratch %v", when, total, want)
	}
}

// TestIncrementalBoxesMatchScratch drives the incremental kernel with
// annealing passes at several temperatures and cross-checks the cached
// boxes against a full recompute after every pass.
func TestIncrementalBoxesMatchScratch(t *testing.T) {
	p, _, _ := buildProblem(t, src, 11)
	p.initBoxes()
	checkBoxes(t, p, "after init")
	movable := p.movable()
	window := math.Max(p.W, p.H) * 0.2
	e := p.engine()
	for pi, temp := range []float64{100, 10, 1, 0.1, 0} {
		passKey := mix64(42 + uint64(pi)*golden64)
		p.runPass(e, passKey, 400, movable, window, math.Max(temp, 1e-9))
		checkBoxes(t, p, "after pass")
	}
	if st := p.Stats(); st.Proposed < 2000 || st.Accepted == 0 {
		t.Fatalf("implausible stats %+v", p.Stats())
	}
}

// TestAnnealKeepsBoxesConsistent runs the full Anneal (force-directed
// seeding, annealing schedule, refinement) and checks the invariant at
// the end, then again after an external perturbation plus Refine.
func TestAnnealKeepsBoxesConsistent(t *testing.T) {
	p, _, _ := buildProblem(t, src, 12)
	p.Anneal(Options{Seed: 12, MovesPerObj: 4})
	checkBoxes(t, p, "after anneal")
	// External position changes (as the packer makes) must be absorbed
	// by Refine's box rebuild.
	rng := rand.New(rand.NewSource(5))
	for _, oi := range p.movable() {
		p.Objs[oi].X = rng.Float64() * p.W
		p.Objs[oi].Y = rng.Float64() * p.H
	}
	p.Refine(0.10, 2, 77)
	checkBoxes(t, p, "after refine")
}

// TestSeededAnnealDeterministic: the same seed must reproduce the same
// placement exactly, regardless of prior runs on other problems.
func TestSeededAnnealDeterministic(t *testing.T) {
	a, _, _ := buildProblem(t, src, 13)
	b, _, _ := buildProblem(t, src, 13)
	a.Anneal(Options{Seed: 9, MovesPerObj: 4})
	b.Anneal(Options{Seed: 9, MovesPerObj: 4})
	for i := range a.Objs {
		if a.Objs[i].X != b.Objs[i].X || a.Objs[i].Y != b.Objs[i].Y {
			t.Fatalf("object %d diverged: (%v,%v) vs (%v,%v)", i,
				a.Objs[i].X, a.Objs[i].Y, b.Objs[i].X, b.Objs[i].Y)
		}
	}
}

// TestBlockedSitesRespected: with a defective left third of the die,
// the initial spread and every annealing/refine move must keep movable
// objects out of it, and the result must stay seed-deterministic.
func TestBlockedSitesRespected(t *testing.T) {
	blocked := func(xn, yn float64) bool { return xn < 1.0/3 }
	build := func() *Problem {
		_, nl, arch := buildProblem(t, src, 14)
		p2, err := Build(nl, ArchArea(arch), Options{Seed: 14, Blocked: blocked})
		if err != nil {
			t.Fatal(err)
		}
		return p2
	}
	a := build()
	if err := a.Anneal(Options{Seed: 14, MovesPerObj: 4}); err != nil {
		t.Fatal(err)
	}
	for _, oi := range a.movable() {
		o := &a.Objs[oi]
		if o.X < a.W/3 {
			t.Fatalf("object %q at (%v,%v) inside blocked region [0,%v)", o.Name, o.X, o.Y, a.W/3)
		}
	}
	// Determinism under defects.
	b := build()
	if err := b.Anneal(Options{Seed: 14, MovesPerObj: 4}); err != nil {
		t.Fatal(err)
	}
	for i := range a.Objs {
		if a.Objs[i].X != b.Objs[i].X || a.Objs[i].Y != b.Objs[i].Y {
			t.Fatalf("object %d diverged under identical blocked anneal", i)
		}
	}
	a.Refine(0.10, 2, 21)
	for _, oi := range a.movable() {
		if o := &a.Objs[oi]; o.X < a.W/3 {
			t.Fatalf("refine moved %q into blocked region", o.Name)
		}
	}
	checkBoxes(t, a, "after blocked anneal+refine")
}

// TestAnnealCancellation: a pre-cancelled context stops the anneal at
// the first pass boundary with the context's error.
func TestAnnealCancellation(t *testing.T) {
	p, _, _ := buildProblem(t, src, 15)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Anneal(Options{Seed: 15, MovesPerObj: 4, Ctx: ctx}); err != context.Canceled {
		t.Fatalf("Anneal under cancelled ctx returned %v, want context.Canceled", err)
	}
	// A nil / live context completes normally.
	if err := p.Anneal(Options{Seed: 15, MovesPerObj: 4}); err != nil {
		t.Fatalf("clean Anneal returned %v", err)
	}
}

// TestAnnealRejectsNegativeMoves: a negative MovesPerObj is an error,
// and the rejected call leaves the placement and counters untouched.
func TestAnnealRejectsNegativeMoves(t *testing.T) {
	p, _, _ := buildProblem(t, src, 16)
	before := p.Positions()
	if err := p.Anneal(Options{Seed: 16, MovesPerObj: -2}); err == nil {
		t.Fatal("Anneal accepted MovesPerObj -2")
	}
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("rejected anneal counted work: %+v", st)
	}
	if !slices.Equal(p.Positions(), before) {
		t.Fatal("rejected anneal moved objects")
	}
}

func TestQuantileSpreadPreservesOrderAndDensity(t *testing.T) {
	p, _, _ := buildProblem(t, src, 9)
	movable := p.movable()
	// Record x-order before spreading.
	byX := func(a, b int32) int { return cmp.Compare(p.Objs[a].X, p.Objs[b].X) }
	orderBefore := append([]int32(nil), movable...)
	slices.SortStableFunc(orderBefore, byX)
	p.quantileSpread(movable, make([]rankKey, len(movable)))
	orderAfter := append([]int32(nil), movable...)
	slices.SortStableFunc(orderAfter, byX)
	for i := range orderBefore {
		if orderBefore[i] != orderAfter[i] {
			t.Fatal("quantile spread changed the x-order of objects")
		}
	}
	// Uniform density: adjacent gaps are all equal.
	gap := p.W / float64(len(movable))
	for rank, oi := range orderAfter {
		want := (float64(rank) + 0.5) * gap
		if d := p.Objs[oi].X - want; d < -1e-9 || d > 1e-9 {
			t.Fatalf("rank %d at %v, want %v", rank, p.Objs[oi].X, want)
		}
	}
}
