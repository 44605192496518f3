package pack

import (
	"testing"

	"vpga/internal/aig"
	"vpga/internal/cells"
	"vpga/internal/compact"
	"vpga/internal/netlist"
	"vpga/internal/place"
	"vpga/internal/rtl"
	"vpga/internal/techmap"
)

// prep runs the front half of the flow and returns the compacted
// netlist plus an annealed placement.
func prep(t *testing.T, src string, arch *cells.PLBArch) (*netlist.Netlist, *place.Problem) {
	t.Helper()
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
	prob, err := place.Build(cres.Netlist, place.ArchArea(arch), place.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	prob.Anneal(place.Options{Seed: 11, MovesPerObj: 4})
	return cres.Netlist, prob
}

const src = `
module m(input clk, input [7:0] a, input [7:0] b, input s, output [7:0] y);
  wire [7:0] sum = a + b;
  wire [7:0] lg = a & b;
  reg [7:0] r;
  always r <= s ? sum : lg;
  assign y = r;
endmodule`

func runPack(t *testing.T, arch *cells.PLBArch) (*netlist.Netlist, *place.Problem, *Result) {
	t.Helper()
	nl, prob := prep(t, src, arch)
	res, err := Run(nl, arch, prob, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return nl, prob, res
}

func TestPackLegalizesBothArchs(t *testing.T) {
	for _, arch := range []*cells.PLBArch{cells.LUTPLB(), cells.GranularPLB()} {
		nl, prob, res := runPack(t, arch)
		if res.Rows <= 0 || res.Cols <= 0 {
			t.Fatalf("%s: degenerate array", arch.Name)
		}
		// Every non-pad object assigned, and every PLB's contents pass
		// the exact slot matcher.
		occupants := map[int][]*cells.Config{}
		groupSeen := map[int32]int{}
		for i := range prob.Objs {
			o := &prob.Objs[i]
			if o.IsPad {
				continue
			}
			plb := res.PLBOf[i]
			if plb < 0 || plb >= res.Rows*res.Cols {
				t.Fatalf("%s: object %d assigned to PLB %d", arch.Name, i, plb)
			}
			n := nl.Node(o.Nodes[0])
			var cfg *cells.Config
			switch {
			case n.Kind == netlist.KindDFF:
				cfg = arch.Config("FF")
			case n.Type == "INV" || n.Type == "BUF":
				cfg = nil
			default:
				cfg = arch.Config(n.Type)
				if cfg == nil {
					t.Fatalf("%s: unknown config %q", arch.Name, n.Type)
				}
			}
			if cfg != nil {
				occupants[plb] = append(occupants[plb], cfg)
			}
			if n.Group != 0 {
				if prev, ok := groupSeen[n.Group]; ok && prev != plb {
					t.Fatalf("%s: FA group %d split across PLBs %d and %d", arch.Name, n.Group, prev, plb)
				}
				groupSeen[n.Group] = plb
			}
		}
		for plb, cfgs := range occupants {
			if !arch.CanPack(cfgs) {
				names := make([]string, len(cfgs))
				for i, c := range cfgs {
					names[i] = c.Name
				}
				t.Fatalf("%s: PLB %d overfull: %v", arch.Name, plb, names)
			}
		}
		if res.UsedPLBs == 0 || res.UsedPLBs > res.Rows*res.Cols {
			t.Fatalf("%s: UsedPLBs = %d", arch.Name, res.UsedPLBs)
		}
		t.Logf("%s: %d×%d array, %d used (%.0f%%), perturbation %.2f pitches, die %.0f",
			arch.Name, res.Rows, res.Cols, res.UsedPLBs, 100*res.Utilization(), res.Perturbation, res.DieArea)
	}
}

func TestGranularPacksDenser(t *testing.T) {
	// Sec. 3.2: the granular PLB packs this datapath into a smaller die
	// despite the larger per-PLB area.
	_, _, lres := runPack(t, cells.LUTPLB())
	_, _, gres := runPack(t, cells.GranularPLB())
	if gres.DieArea >= lres.DieArea*1.30 {
		t.Errorf("granular die %.0f not competitive with LUT die %.0f", gres.DieArea, lres.DieArea)
	}
	t.Logf("die area: granular %.0f vs LUT %.0f (ratio %.2f)", gres.DieArea, lres.DieArea, gres.DieArea/lres.DieArea)
}

func TestObjectsSnapToPLBCenters(t *testing.T) {
	_, prob, res := runPack(t, cells.GranularPLB())
	pitchX := prob.W / float64(res.Cols)
	pitchY := prob.H / float64(res.Rows)
	for i := range prob.Objs {
		o := &prob.Objs[i]
		if o.IsPad {
			continue
		}
		plb := res.PLBOf[i]
		cx := (float64(plb%res.Cols) + 0.5) * pitchX
		cy := (float64(plb/res.Cols) + 0.5) * pitchY
		if dx, dy := o.X-cx, o.Y-cy; dx*dx+dy*dy > 1e-12 {
			t.Fatalf("object %d at (%v,%v), want PLB center (%v,%v)", i, o.X, o.Y, cx, cy)
		}
	}
}

// demandOf builds a role demand from role → count pairs.
func demandOf(counts map[cells.Role]int) cells.Demand {
	var d cells.Demand
	for r, k := range counts {
		d[r.Index()] += k
	}
	return d
}

func TestAggFeasible(t *testing.T) {
	arch := cells.GranularPLB()
	p := &packer{arch: arch}
	cases := []struct {
		name   string
		demand map[cells.Role]int
		plbs   int
		want   bool
	}{
		{"3 mux + 1 nand fit one granular PLB", map[cells.Role]int{cells.RoleMux: 3, cells.RoleNand: 1}, 1, true},
		{"4 mux do not fit one granular PLB", map[cells.Role]int{cells.RoleMux: 4}, 1, false},
		{"4 mux fit two granular PLBs", map[cells.Role]int{cells.RoleMux: 4}, 2, true},
		{"granular arch has no LUT slots", map[cells.Role]int{cells.RoleLUT: 1}, 8, false},
	}
	for _, c := range cases {
		d := demandOf(c.demand)
		if got := p.fits(&d, c.plbs); got != c.want {
			t.Errorf("%s: fits = %v, want %v", c.name, got, c.want)
		}
		if got := aggFeasibleOracle(arch, d, c.plbs); got != c.want {
			t.Errorf("%s: max-flow oracle = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSpiralFind(t *testing.T) {
	p := &packer{rows: 5, cols: 5}
	// Start at center (2,2)=12; accept only index 0 (corner).
	got := p.spiralFind(12, func(i int) bool { return i == 0 })
	if got != 0 {
		t.Fatalf("spiralFind = %d, want 0", got)
	}
	if got := p.spiralFind(12, func(i int) bool { return false }); got != -1 {
		t.Fatalf("spiralFind = %d, want -1", got)
	}
}

func TestCriticalityKeepsCriticalCellsStill(t *testing.T) {
	nl, prob := prep(t, src, cells.GranularPLB())
	// Mark half the objects highly critical.
	crit := make([]float64, len(prob.Objs))
	for i := range crit {
		if i%2 == 0 {
			crit[i] = 10
		}
	}
	if _, err := Run(nl, cells.GranularPLB(), prob, Options{Seed: 2, Criticality: crit}); err != nil {
		t.Fatal(err)
	}
}

func TestIterativeLoopReducesPerturbation(t *testing.T) {
	// The paper's packing runs in an iterative loop with physical
	// synthesis; more iterations must not make the legalization worse.
	nl, prob := prep(t, src, cells.GranularPLB())
	one, err := Run(nl, cells.GranularPLB(), prob, Options{Seed: 4, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	nl2, prob2 := prep(t, src, cells.GranularPLB())
	four, err := Run(nl2, cells.GranularPLB(), prob2, Options{Seed: 4, MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.DieArea > one.DieArea {
		t.Errorf("more pack iterations grew the array: %.0f vs %.0f", four.DieArea, one.DieArea)
	}
	t.Logf("perturbation: 1 iter %.2f, 4 iters %.2f pitches", one.Perturbation, four.Perturbation)
}

func TestLowerBoundRespectsFFs(t *testing.T) {
	// A design of pure flip-flops needs at least one PLB per FF.
	arch := cells.GranularPLB()
	nl := netlist.New("ffs")
	a := nl.AddInput("a")
	prev := a
	for i := 0; i < 9; i++ {
		prev = nl.AddDFF(fmtInt("r", i), prev)
	}
	nl.AddOutput("y", prev)
	prob, err := place.Build(nl, place.ArchArea(arch), place.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(nl, arch, prob, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows*res.Cols < 9 {
		t.Fatalf("array %dx%d cannot host 9 FFs at 1 per PLB", res.Rows, res.Cols)
	}
}

func fmtInt(p string, i int) string {
	return p + string(rune('0'+i))
}
