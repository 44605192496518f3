package compact

import (
	"bytes"
	"encoding/json"
	"testing"

	"vpga/internal/aig"
	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/netlist"
	"vpga/internal/rtl"
	"vpga/internal/techmap"
)

// mapAndCompact runs RTL → AIG → delay-oriented mapping → compaction.
func mapAndCompact(t *testing.T, src string, arch *cells.PLBArch) (*netlist.Netlist, *techmap.Result, *Result) {
	t.Helper()
	nl, err := rtl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := aig.FromNetlist(nl)
	if err != nil {
		t.Fatal(err)
	}
	d.Optimize(3)
	mapped, err := techmap.Map(d, arch, techmap.Options{AreaPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mapped.Netlist, arch)
	if err != nil {
		t.Fatal(err)
	}
	return nl, mapped, res
}

const adderSrc = `
module a8(input clk, input [7:0] a, input [7:0] b, output [7:0] s);
  reg [7:0] r;
  always r <= a + b;
  assign s = r;
endmodule`

const mixSrc = `
module mix(input clk, input [5:0] a, input [5:0] b, input sel, output [5:0] y, output p);
  wire [5:0] sum = a + b;
  wire [5:0] lg = a & ~b;
  reg [5:0] r;
  always r <= sel ? sum : lg;
  assign y = r;
  assign p = ^a;
endmodule`

func TestCompactPreservesEquivalence(t *testing.T) {
	for _, arch := range []*cells.PLBArch{cells.LUTPLB(), cells.GranularPLB()} {
		for _, src := range []string{adderSrc, mixSrc} {
			ref, _, res := mapAndCompact(t, src, arch)
			if err := netlist.Equivalent(ref, res.Netlist, 16, 6, 5); err != nil {
				t.Fatalf("%s: compaction broke equivalence: %v", arch.Name, err)
			}
		}
	}
}

func TestCompactReducesArea(t *testing.T) {
	for _, arch := range []*cells.PLBArch{cells.LUTPLB(), cells.GranularPLB()} {
		_, _, res := mapAndCompact(t, mixSrc, arch)
		if res.AreaAfter > res.AreaBefore+1e-9 {
			t.Errorf("%s: compaction grew area %.2f -> %.2f", arch.Name, res.AreaBefore, res.AreaAfter)
		}
		t.Logf("%s: area %.2f -> %.2f (%.1f%% reduction), configs %v",
			arch.Name, res.AreaBefore, res.AreaAfter, 100*res.Reduction(), res.ConfigCounts)
	}
}

func TestCompactEmitsOnlyConfigTypes(t *testing.T) {
	for _, arch := range []*cells.PLBArch{cells.LUTPLB(), cells.GranularPLB()} {
		allowed := map[string]bool{"INV": true, "BUF": true, "DFF": true}
		for _, cfg := range arch.Configs {
			allowed[cfg.Name] = true
		}
		_, _, res := mapAndCompact(t, mixSrc, arch)
		for _, n := range res.Netlist.Nodes() {
			if n.Kind == netlist.KindGate && !allowed[n.Type] {
				t.Errorf("%s: netlist contains non-config gate %q", arch.Name, n.Type)
			}
		}
	}
}

func TestFullAdderExtraction(t *testing.T) {
	// A plain ripple adder on the granular arch should yield FA macros.
	_, _, res := mapAndCompact(t, adderSrc, cells.GranularPLB())
	if res.FullAdders == 0 {
		t.Errorf("no full adders extracted from an 8-bit ripple adder: %v", res.ConfigCounts)
	}
	// Groups must come in pairs with matching Group IDs.
	groups := map[int32]int{}
	for _, n := range res.Netlist.Nodes() {
		if n.Kind == netlist.KindGate && n.Group != 0 {
			if n.Type != "FA" {
				t.Errorf("grouped node has type %q", n.Type)
			}
			groups[n.Group]++
		}
	}
	for g, count := range groups {
		if count != 2 {
			t.Errorf("FA group %d has %d members, want 2", g, count)
		}
	}
	if len(groups) != res.FullAdders {
		t.Errorf("FullAdders=%d but %d groups found", res.FullAdders, len(groups))
	}
	// The LUT arch cannot host FA macros.
	_, _, lres := mapAndCompact(t, adderSrc, cells.LUTPLB())
	if lres.FullAdders != 0 {
		t.Errorf("LUT arch extracted %d full adders", lres.FullAdders)
	}
}

// TestFullAdderPairingDeterministic compacts one mapped netlist 20
// times per design and requires a single encoding: FA group numbers
// and the claim among overlapping candidates must not follow map
// order.
func TestFullAdderPairingDeterministic(t *testing.T) {
	arch := cells.GranularPLB()
	for _, d := range []bench.Design{bench.ALU(8), bench.FIR(8, 8), bench.FPU(12)} {
		_, mapped, first := mapAndCompact(t, d.RTL, arch)
		if first.FullAdders == 0 {
			t.Fatalf("%s: no full adders to pair", d.Name)
		}
		want, err := json.Marshal(first.Netlist)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 20; i++ {
			res, err := Run(mapped.Netlist, arch)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(res.Netlist)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: compaction %d encodes differently from the first", d.Name, i)
			}
		}
	}
}

func TestGranularClustersBeatLUTDelay(t *testing.T) {
	// After compaction the granular netlist should consist mostly of
	// compound configs whose intrinsic delay beats the LUT's.
	arch := cells.GranularPLB()
	_, _, res := mapAndCompact(t, mixSrc, arch)
	lutDelay := arch.Config("LUT").Intrinsic
	for _, n := range res.Netlist.Nodes() {
		if n.Kind != netlist.KindGate || n.Type == "INV" || n.Type == "BUF" {
			continue
		}
		cfg := arch.Config(n.Type)
		if cfg == nil {
			t.Fatalf("unknown config %q", n.Type)
		}
		if cfg.Intrinsic > lutDelay {
			t.Errorf("config %s slower than LUT", n.Type)
		}
	}
}

func TestInverterAbsorption(t *testing.T) {
	// ~b feeding logic should be absorbed into configurations.
	src := `
module inv(input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = a & ~b;
endmodule`
	_, mapped, res := mapAndCompact(t, src, cells.GranularPLB())
	invBefore := mapped.CellCounts["INV"]
	invAfter := 0
	for _, n := range res.Netlist.Nodes() {
		if n.Kind == netlist.KindGate && n.Type == "INV" {
			invAfter++
		}
	}
	if invAfter > invBefore {
		t.Errorf("inverters grew: %d -> %d", invBefore, invAfter)
	}
}

func TestClusterLeafCountBound(t *testing.T) {
	for _, arch := range []*cells.PLBArch{cells.LUTPLB(), cells.GranularPLB()} {
		_, _, res := mapAndCompact(t, mixSrc, arch)
		for _, n := range res.Netlist.Nodes() {
			if n.Kind == netlist.KindGate && len(n.Fanins) > 3 {
				t.Errorf("%s: config instance with %d inputs", arch.Name, len(n.Fanins))
			}
		}
	}
}
