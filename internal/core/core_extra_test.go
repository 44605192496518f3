package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/logic"
	"vpga/internal/netlist"
	"vpga/internal/route"
)

func TestInsertBuffersCapsFanout(t *testing.T) {
	nl := netlist.New("fan")
	a := nl.AddInput("a")
	// One driver gate with 37 sinks.
	drv := nl.AddGate("MX", logic.VarTT(1, 0), a)
	for i := 0; i < 37; i++ {
		g := nl.AddGate("MX", logic.VarTT(1, 0), drv)
		nl.AddOutput("o"+string(rune('A'+i)), g)
	}
	ref := nl.Clone()
	added := insertBuffers(nl)
	if added == 0 {
		t.Fatal("no buffers inserted for fanout 37")
	}
	for _, n := range nl.Nodes() {
		switch n.Kind {
		case netlist.KindGate, netlist.KindInput, netlist.KindDFF:
			if got := len(nl.Fanouts(n.ID)); got > maxFanout {
				t.Fatalf("node %d (%s) still has fanout %d > %d", n.ID, n.Type, got, maxFanout)
			}
		}
	}
	if err := netlist.Equivalent(ref, nl, 8, 2, 1); err != nil {
		t.Fatalf("buffering changed behaviour: %v", err)
	}
}

func TestInsertBuffersLeavesSmallNetsAlone(t *testing.T) {
	nl := netlist.New("small")
	a := nl.AddInput("a")
	g := nl.AddGate("MX", logic.VarTT(1, 0), a)
	nl.AddOutput("y", g)
	if added := insertBuffers(nl); added != 0 {
		t.Fatalf("inserted %d buffers into a fanout-1 design", added)
	}
}

func TestWriteFloorplan(t *testing.T) {
	rep, art, err := RunFlow(context.Background(), bench.ALU(8), Config{Arch: cells.GranularPLB(), Flow: FlowB, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFloorplan(&sb, rep, art); err != nil {
		t.Fatal(err)
	}
	fp := sb.String()
	for _, want := range []string{"PLB array", "# occupancy", "# inventory", "# routing", "PLB(0,"} {
		if !strings.Contains(fp, want) {
			t.Errorf("floorplan missing %q", want)
		}
	}
	// The occupancy map must be rows lines of cols characters.
	lines := strings.Split(fp, "\n")
	mapLines := 0
	for _, l := range lines {
		if len(l) == rep.Cols && strings.Trim(l, ".0123456789*") == "" && len(l) > 0 {
			mapLines++
		}
	}
	if mapLines < rep.Rows {
		t.Errorf("occupancy map has %d full lines, want %d", mapLines, rep.Rows)
	}
}

func TestWriteFloorplanRequiresFlowB(t *testing.T) {
	rep, art, err := RunFlow(context.Background(), bench.ALU(8), Config{Arch: cells.GranularPLB(), Flow: FlowA, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFloorplan(&sb, rep, art); err == nil {
		t.Fatal("flow-a floorplan accepted")
	}
}

func TestViaStatsInReport(t *testing.T) {
	rep, _, err := RunFlow(context.Background(), bench.ALU(8), Config{Arch: cells.GranularPLB(), Flow: FlowB, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PopulatedVias <= 0 || rep.ViaSitesPerPLB <= 0 {
		t.Fatalf("via stats missing: %+v", rep)
	}
	// Populated vias must be far below the fabric's potential sites.
	potential := rep.ViaSitesPerPLB * rep.Rows * rep.Cols
	if rep.PopulatedVias >= potential {
		t.Fatalf("populated %d >= potential %d", rep.PopulatedVias, potential)
	}
}

func TestPowerInReport(t *testing.T) {
	rep, _, err := RunFlow(context.Background(), bench.ALU(8), Config{Arch: cells.GranularPLB(), Flow: FlowB, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PowerUW <= 0 {
		t.Fatalf("power missing: %v", rep.PowerUW)
	}
}

func TestReclockShiftsSlack(t *testing.T) {
	rep := &Report{ClockPeriod: 1000, AvgTopSlack: 100, WorstSlack: 50}
	rep.Reclock(1500)
	if rep.ClockPeriod != 1500 || rep.AvgTopSlack != 600 || rep.WorstSlack != 550 {
		t.Fatalf("reclock wrong: %+v", rep)
	}
}

func TestDomainExploreSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	archs := []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()}
	results, err := RunDomainExplore(context.Background(), []bench.Design{bench.ALU(8)}, archs, SweepOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].Points) != 2 {
		t.Fatalf("results: %+v", results)
	}
	if results[0].Best == "" {
		t.Fatal("no winner chosen")
	}
	if !strings.Contains(FormatDomains(results), results[0].Best) {
		t.Fatal("formatting missing the winner")
	}
}

func TestRoutingSweepMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	pts, err := RunRoutingSweep(context.Background(), bench.ALU(8), cells.GranularPLB(), []int{4, 16, 64}, SweepOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// Overflow must not increase with more tracks.
	for i := 1; i < len(pts); i++ {
		if pts[i].Overflow > pts[i-1].Overflow {
			t.Errorf("overflow grew with capacity: %+v", pts)
		}
	}
	// With generous tracks, overflow disappears on this small design.
	if pts[len(pts)-1].Overflow != 0 {
		t.Errorf("overflow %d remains at capacity 64", pts[len(pts)-1].Overflow)
	}
	if !strings.Contains(FormatRoutingSweep("ALU", pts), "tracks") {
		t.Error("format broken")
	}
}

// TestRoutingSweepRejectsCapacityOutOfRange: a capacity outside 1 to
// route.MaxCapacity tracks fails before the sweep runs its flow. Track
// assignment allocates a bit per track on every grid edge, so an
// unchecked width is an unbounded allocation. The context is already
// cancelled, so an error from the flow would be a cancellation.
func TestRoutingSweepRejectsCapacityOutOfRange(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, caps := range [][]int{{0}, {4, route.MaxCapacity + 1}} {
		_, err := RunRoutingSweep(ctx, bench.ALU(8), cells.GranularPLB(), caps, SweepOptions{Seed: 3})
		if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "capacity") {
			t.Errorf("capacities %v: error %v, want a capacity error", caps, err)
		}
	}
	if err := CheckCapacities([]int{1, route.MaxCapacity}); err != nil {
		t.Errorf("the bounds themselves are refused: %v", err)
	}
}

// TestRunRejectsArchWithoutSlotForRole: a custom arch with no flip-flop
// slot cannot host a sequential design at any array size. Packing must
// say so, naming the arch and the role, before it sizes an array,
// instead of growing the array until the run is cancelled.
func TestRunRejectsArchWithoutSlotForRole(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()
	req := FlowRequest{Design: "firewire", Arch: ArchSpec{Kind: "custom", Mux: 2, Xoa: 1, Nand: 1, FF: 0},
		Flow: "b", Seed: 1, PlaceEffort: 1}
	start := time.Now()
	_, err := Run(ctx, req, ExecOptions{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Run packed a sequential design on an arch without flip-flop slots")
	}
	if msg := err.Error(); !strings.Contains(msg, `"custom"`) || !strings.Contains(msg, `"dff"`) {
		t.Errorf("error %q does not name the arch and the unservable role", msg)
	}
	if elapsed > 10*time.Second {
		t.Errorf("Run took %v to fail", elapsed)
	}
}

// TestRunFlowRejectsNegativePlaceEffort: a negative PlaceEffort reaches
// the annealer as a negative MovesPerObj from callers that skip
// FlowRequest.Validate (RunMatrix, cmd/paper -effort). RunFlow must
// fail it as a place-stage *FlowError instead of annealing nothing.
func TestRunFlowRejectsNegativePlaceEffort(t *testing.T) {
	_, _, err := RunFlow(context.Background(), bench.ALU(4), Config{
		Arch: cells.GranularPLB(), Flow: FlowA, Seed: 1, PlaceEffort: -1,
	})
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != "place" || !strings.Contains(err.Error(), "negative MovesPerObj -1") {
		t.Fatalf("RunFlow with PlaceEffort -1: error %v, want a place-stage *FlowError", err)
	}
}
