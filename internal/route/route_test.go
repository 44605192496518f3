package route

import (
	"testing"

	"vpga/internal/aig"
	"vpga/internal/cells"
	"vpga/internal/compact"
	"vpga/internal/logic"
	"vpga/internal/netlist"
	"vpga/internal/obs"
	"vpga/internal/place"
	"vpga/internal/rtl"
	"vpga/internal/techmap"
)

func prepPlacement(t *testing.T, src string) *place.Problem {
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
	prob, err := place.Build(cres.Netlist, place.ArchArea(arch), place.Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	prob.Anneal(place.Options{Seed: 21, MovesPerObj: 4})
	return prob
}

const src = `
module m(input clk, input [7:0] a, input [7:0] b, input s, output [7:0] y);
  wire [7:0] sum = a + b;
  wire [7:0] lg = a ^ b;
  reg [7:0] r;
  always r <= s ? sum : lg;
  assign y = r;
endmodule`

func TestRouteCompletes(t *testing.T) {
	prob := prepPlacement(t, src)
	res, err := Route(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 {
		t.Fatal("zero total wirelength")
	}
	if res.Overflow != 0 {
		t.Errorf("overflow = %d after %d iterations", res.Overflow, res.Iterations)
	}
	if len(res.NetLength) != len(prob.Nets) {
		t.Fatalf("per-net lengths: %d, want %d", len(res.NetLength), len(prob.Nets))
	}
	t.Logf("wirelength %.1f, grid %dx%d, peak util %.2f, %d iterations",
		res.Total, res.CellsX, res.CellsY, res.MaxUtilization, res.Iterations)
}

func TestSinkDistances(t *testing.T) {
	prob := prepPlacement(t, src)
	res, err := Route(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	edgeLen := (res.BinW + res.BinH) / 2
	for ni, net := range prob.Nets {
		if len(res.SinkDist[ni]) != len(net.Objs)-1 {
			t.Fatalf("net %d: %d sink distances for %d sinks", ni, len(res.SinkDist[ni]), len(net.Objs)-1)
		}
		for k, d := range res.SinkDist[ni] {
			if d < 0 || d > res.NetLength[ni]+1e-9 {
				t.Fatalf("net %d sink %d: distance %v outside [0, %v]", ni, k, d, res.NetLength[ni])
			}
			// Tree distance is at least the Manhattan bound (same-bin
			// sinks are 0).
			src := prob.Objs[net.Objs[0]]
			dst := prob.Objs[net.Objs[k+1]]
			mx := abs(src.X-dst.X) + abs(src.Y-dst.Y)
			if d+2*edgeLen < mx-2*(res.BinW+res.BinH) {
				t.Fatalf("net %d sink %d: tree distance %v shorter than manhattan %v", ni, k, d, mx)
			}
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestWireRC(t *testing.T) {
	prob := prepPlacement(t, src)
	res, err := Route(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ni := range prob.Nets {
		capTotal := res.NetCap(ni)
		if capTotal < 0 {
			t.Fatal("negative net cap")
		}
		for k := range res.SinkDist[ni] {
			d, c := res.WireRC(ni, k)
			if d < 0 || c < 0 {
				t.Fatal("negative RC")
			}
			if c != capTotal {
				t.Fatal("sink cap should equal net cap under the lumped model")
			}
		}
	}
}

func TestCongestionNegotiation(t *testing.T) {
	// Tiny capacity forces negotiation; router must still converge on
	// this small design. The trace's first sample is the overflow a
	// single routing round leaves.
	prob := prepPlacement(t, src)
	trace := &obs.RouteTrace{}
	tight, err := Route(prob, Options{Capacity: 3, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	overflows, _ := trace.Snapshot()
	oneShot := overflows[0]
	if tight.Overflow > oneShot {
		t.Errorf("negotiation increased overflow: %d -> %d", oneShot, tight.Overflow)
	}
	if tight.Iterations <= 1 && tight.Overflow > 0 {
		t.Error("overflow remains but router stopped after one iteration")
	}
	t.Logf("capacity-3 overflow: one-shot %d, negotiated %d (%d iterations)",
		oneShot, tight.Overflow, tight.Iterations)
}

func TestRouteTinyDesign(t *testing.T) {
	nl := netlist.New("tiny")
	a := nl.AddInput("a")
	g := nl.AddGate("INV", logic.VarTT(1, 0).Not(), a)
	nl.AddOutput("y", g)
	prob, err := place.Build(nl, func(n *netlist.Node) float64 { return 1 }, place.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Route(prob, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignTracks(t *testing.T) {
	prob := prepPlacement(t, src)
	res, err := Route(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ta := res.AssignTracks()
	if len(ta.NetTracks) != len(prob.Nets) {
		t.Fatalf("track vectors: %d, want %d", len(ta.NetTracks), len(prob.Nets))
	}
	if res.Overflow == 0 && ta.Unassigned != 0 {
		t.Fatalf("overflow-free routing left %d crossings unassigned", ta.Unassigned)
	}
	if ta.RoutingVias <= 0 {
		t.Fatal("no routing vias counted")
	}
	// Legality: no two nets share a track on the same edge.
	type slot struct {
		horizontal bool
		idx        int32
		track      int16
	}
	seen := map[slot]int{}
	for ni, tracks := range ta.NetTracks {
		for k, e := range res.netEdges[ni] {
			tr := tracks[k]
			if tr < 0 {
				continue
			}
			key := slot{e.horizontal, e.idx, tr}
			if owner, dup := seen[key]; dup && owner != ni {
				t.Fatalf("edge (%v,%d) track %d shared by nets %d and %d", e.horizontal, e.idx, tr, owner, ni)
			}
			seen[key] = ni
		}
	}
	t.Logf("routing vias %d, peak track %d", ta.RoutingVias, ta.PeakTrack)
}

func TestAssignTracksPrefersContinuity(t *testing.T) {
	prob := prepPlacement(t, src)
	res, err := Route(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ta := res.AssignTracks()
	// A lower bound: every multi-edge straight run needs at most one
	// via more than its direction changes. Just sanity-check the via
	// count is below the total crossing count plus pin escapes.
	crossings := 0
	for _, tracks := range ta.NetTracks {
		crossings += len(tracks)
	}
	if ta.RoutingVias > crossings+len(ta.NetTracks) {
		t.Fatalf("vias %d exceed plausible bound (%d crossings)", ta.RoutingVias, crossings)
	}
}
