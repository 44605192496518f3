package viamap

import (
	"testing"

	"vpga/internal/cells"
	"vpga/internal/logic"
)

func TestProgramNandFamily(t *testing.T) {
	for _, fn := range []logic.TT{logic.TTNand3, logic.TTAnd3, logic.TTOr3,
		logic.TTNand2.Extend(3), logic.TTNor2.Extend(3), logic.VarTT(3, 1).Not()} {
		p, err := Program("ND3", fn)
		if err != nil {
			t.Fatalf("ND3 %v: %v", fn, err)
		}
		if err := Verify(p, fn); err != nil {
			t.Fatalf("%v", err)
		}
		if p.Cells[0].Component != "ND3WI" {
			t.Fatalf("wrong component %s", p.Cells[0].Component)
		}
	}
	if _, err := Program("ND3", logic.TTXor3); err == nil {
		t.Fatal("XOR3 must not personalize onto a ND3WI")
	}
}

func TestProgramMux(t *testing.T) {
	for _, fn := range []logic.TT{logic.TTMux3, logic.TTXor2.Extend(3),
		logic.TTXnor2.Extend(3), logic.TTAnd2.Extend(3), logic.VarTT(3, 2)} {
		p, err := Program("MX", fn)
		if err != nil {
			t.Fatalf("MX %v: %v", fn, err)
		}
		if err := Verify(p, fn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Program("MX", logic.TTMaj3); err == nil {
		t.Fatal("MAJ3 must not fit a single MUX")
	}
}

// TestProgramAllConfigCoverage checks that every function each
// configuration claims to implement actually personalizes, and that
// the verified program matches.
func TestProgramAllConfigCoverage(t *testing.T) {
	arch := cells.GranularPLB()
	for _, name := range []string{"ND2", "ND3", "MX", "NDMX", "XOAMX", "XOANDMX"} {
		cfg := arch.Config(name)
		count := 0
		for bits := uint64(0); bits < 256; bits++ {
			fn := logic.NewTT(3, bits)
			if !cfg.Implements(fn) {
				continue
			}
			count++
			p, err := Program(name, fn)
			if err != nil {
				t.Fatalf("%s claims %v but personalization failed: %v", name, fn, err)
			}
			if err := Verify(p, fn); err != nil {
				t.Fatalf("%s %v: %v", name, fn, err)
			}
		}
		if count == 0 {
			t.Fatalf("%s implements nothing?", name)
		}
		t.Logf("%-8s personalized %3d functions", name, count)
	}
}

func TestProgramLUT(t *testing.T) {
	for bits := uint64(0); bits < 256; bits += 17 {
		fn := logic.NewTT(3, bits)
		p, err := Program("LUT", fn)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(p, fn); err != nil {
			t.Fatal(err)
		}
		if len(p.Cells[0].LUTRows) != 8 {
			t.Fatal("LUT personality must have 8 rows")
		}
	}
}

func TestProgramFA(t *testing.T) {
	for _, fn := range []logic.TT{logic.TTXor3, logic.TTXnor3, logic.TTMaj3} {
		p, err := Program("FA", fn)
		if err != nil {
			t.Fatalf("FA %v: %v", fn, err)
		}
		if err := Verify(p, fn); err != nil {
			t.Fatalf("FA %v: %v", fn, err)
		}
	}
	// NPN variants of the carry (inverted operands) must personalize too.
	for _, fn := range logic.NPNClass(logic.TTMaj3) {
		p, err := Program("FA", fn)
		if err != nil {
			t.Fatalf("FA maj-variant %v: %v", fn, err)
		}
		if err := Verify(p, fn); err != nil {
			t.Fatal(err)
		}
	}
}

func TestViaCountsPositive(t *testing.T) {
	p, err := Program("NDMX", logic.Mux(logic.VarTT(3, 2), logic.TTAnd2.Extend(3), logic.VarTT(3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if p.Vias() < 5 {
		t.Fatalf("NDMX vias = %d, implausibly few", p.Vias())
	}
	if p.String() == "" {
		t.Fatal("empty render")
	}
}

func TestPotentialSitesGranularVsLUT(t *testing.T) {
	g := PotentialSites(cells.GranularPLB())
	l := PotentialSites(cells.LUTPLB())
	if g <= l {
		t.Fatalf("granular PLB should expose more potential via sites (%d) than the LUT PLB (%d): that is its configurability cost", g, l)
	}
	// ... but per the paper the cost ratio is far below the area ratio
	// an SRAM fabric would pay: each site is one via, not one SRAM bit
	// of ~6 transistors.
	if SRAMBitsEquivalent(cells.GranularPLB()) != g {
		t.Fatal("SRAM-equivalent bits should equal potential sites")
	}
	t.Logf("potential via sites: granular=%d lut=%d (ratio %.2f)", g, l, float64(g)/float64(l))
}

func TestVerifyCatchesCorruption(t *testing.T) {
	p, err := Program("MX", logic.TTXor2.Extend(3))
	if err != nil {
		t.Fatal(err)
	}
	p.Cells[0].OutputInvert = !p.Cells[0].OutputInvert
	if err := Verify(p, logic.TTXor2.Extend(3)); err == nil {
		t.Fatal("corrupted program passed verification")
	}
}
