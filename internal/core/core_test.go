package core

import (
	"context"
	"strings"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/cells"
)

func TestRunFlowBothFlowsBothArchs(t *testing.T) {
	d := bench.ALU(8)
	for _, arch := range []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()} {
		clock := 0.0
		for _, flow := range []FlowKind{FlowA, FlowB} {
			rep, _, err := RunFlow(context.Background(), d, Config{Arch: arch, Flow: flow, ClockPeriod: clock, Seed: 5, Verify: true})
			if err != nil {
				t.Fatalf("%s %s: %v", arch.Name, flow, err)
			}
			clock = rep.ClockPeriod
			if rep.DieArea <= 0 || rep.GateCount <= 0 {
				t.Fatalf("%s %s: degenerate report %+v", arch.Name, flow, rep)
			}
			if flow == FlowB && (rep.Rows == 0 || rep.Utilization <= 0) {
				t.Fatalf("%s flow b: missing array stats", arch.Name)
			}
			if flow == FlowA && rep.Rows != 0 {
				t.Fatalf("%s flow a: unexpected array stats", arch.Name)
			}
			t.Log(rep.summary())
		}
	}
}

func TestFlowBCostsMoreAreaThanFlowA(t *testing.T) {
	// Packing into a regular array always carries area overhead
	// relative to the free-form ASIC placement (Table 1's flow a vs b).
	d := bench.FPU(6)
	arch := cells.GranularPLB()
	a, _, err := RunFlow(context.Background(), d, Config{Arch: arch, Flow: FlowA, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunFlow(context.Background(), d, Config{Arch: arch, Flow: FlowB, ClockPeriod: a.ClockPeriod, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if b.DieArea < a.DieArea {
		t.Errorf("flow b die %.0f smaller than flow a %.0f", b.DieArea, a.DieArea)
	}
}

func TestCompactionAblation(t *testing.T) {
	d := bench.ALU(8)
	arch := cells.GranularPLB()
	with, _, err := RunFlow(context.Background(), d, Config{Arch: arch, Flow: FlowB, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	without, _, err := RunFlow(context.Background(), d, Config{Arch: arch, Flow: FlowB, ClockPeriod: with.ClockPeriod, Seed: 9, SkipCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.CompactionReduction <= 0 {
		t.Errorf("compaction reduced nothing: %v", with.CompactionReduction)
	}
	if without.CompactionReduction != 0 {
		t.Errorf("ablation still reports reduction")
	}
	if with.DieArea > without.DieArea {
		t.Errorf("compaction increased die area: %.0f vs %.0f", with.DieArea, without.DieArea)
	}
	t.Logf("compaction: %.1f%% gate-area reduction, die %.0f vs %.0f without",
		100*with.CompactionReduction, with.DieArea, without.DieArea)
}

func TestMatrixAndClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run is slow")
	}
	suite := bench.TestSuite()
	m, err := RunMatrix(context.Background(), suite, MatrixOptions{Seed: 3, PlaceEffort: 3})
	if err != nil {
		t.Fatal(err)
	}
	t1 := m.Table1()
	t2 := m.Table2()
	for _, d := range suite.All() {
		if !strings.Contains(t1, d.Name) || !strings.Contains(t2, d.Name) {
			t.Errorf("tables missing %s:\n%s\n%s", d.Name, t1, t2)
		}
	}
	claims := m.DeriveClaims()
	s := claims.String()
	if !strings.Contains(s, "paper") {
		t.Error("claims text missing paper references")
	}
	t.Logf("\n%s\n%s\n%s", t1, t2, s)
	// Shape checks on the miniature suite: the granular PLB must not
	// lose badly on datapath designs, and Firewire's ratio is defined.
	if claims.FirewireAreaRatio == 0 {
		t.Error("Firewire ratio missing")
	}
	// Clock consistency within each design.
	for _, d := range suite.All() {
		clk := m.Get(d.Name, "granular-plb", FlowA).ClockPeriod
		for _, arch := range []string{"granular-plb", "lut-plb"} {
			for _, fl := range []FlowKind{FlowA, FlowB} {
				if got := m.Get(d.Name, arch, fl).ClockPeriod; got != clk {
					t.Errorf("%s %s %v: clock %v != %v", d.Name, arch, fl, got, clk)
				}
			}
		}
	}
}

func TestFig2Text(t *testing.T) {
	s := Fig2Text()
	for _, want := range []string{"196", "complete", "3-input XOR"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig2 text missing %q:\n%s", want, s)
		}
	}
}

func TestGranularitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	pts, err := RunGranularitySweep(context.Background(), bench.ALU(8), DefaultSweepArchs(), SweepOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(DefaultSweepArchs()) {
		t.Fatalf("%d sweep points", len(pts))
	}
	for _, p := range pts {
		if p.DieArea <= 0 {
			t.Errorf("%s: die area %v", p.Arch, p.DieArea)
		}
		t.Logf("%-14s %-34s plb=%5.1f die=%8.0f slack=%8.1f", p.Arch, p.Slots, p.PLBArea, p.DieArea, p.AvgTopSlack)
	}
}

func TestIdentityConfigs(t *testing.T) {
	d := bench.ALU(8)
	arch := cells.LUTPLB()
	rep, _, err := RunFlow(context.Background(), d, Config{Arch: arch, Flow: FlowB, Seed: 13, SkipCompaction: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DieArea <= 0 {
		t.Fatal("bad report")
	}
}
