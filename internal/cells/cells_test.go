package cells

import (
	"strings"
	"sync"
	"testing"

	"vpga/internal/logic"
)

func TestComponentLibraryContents(t *testing.T) {
	lib := ComponentLibrary()
	for _, name := range []string{"INV", "BUF", "ND3WI", "MUX2", "XOA", "LUT3", "DFF"} {
		if lib.Cell(name) == nil {
			t.Errorf("library missing %s", name)
		}
	}
	if lib.Cell("NOPE") != nil {
		t.Error("unknown cell returned non-nil")
	}
	if got := len(lib.Names()); got != 7 || len(lib.Cells()) != 7 {
		t.Errorf("library has %d cells, want 7", got)
	}
}

func TestLUTWorseThanSimpleGate(t *testing.T) {
	// Section 2 / [10]: a LUT configured as a simple logic function is
	// substantially inferior to the equivalent simple cell in delay and
	// area.
	lib := ComponentLibrary()
	lut, nd3 := lib.Cell("LUT3"), lib.Cell("ND3WI")
	if lut.Intrinsic < 2*nd3.Intrinsic {
		t.Errorf("LUT intrinsic %v should be ≥ 2× ND3WI %v", lut.Intrinsic, nd3.Intrinsic)
	}
	if lut.Area < 3*nd3.Area {
		t.Errorf("LUT area %v should be ≥ 3× ND3WI %v", lut.Area, nd3.Area)
	}
}

func TestND3WIImplements(t *testing.T) {
	nd3 := ComponentLibrary().Cell("ND3WI")
	for _, fn := range []logic.TT{logic.TTNand3, logic.TTAnd3, logic.TTOr3,
		logic.TTNand2.Extend(3), logic.TTNor2.Extend(3), logic.ConstTT(3, true)} {
		if !nd3.Implements(fn) {
			t.Errorf("ND3WI should implement %v", fn)
		}
	}
	for _, fn := range []logic.TT{logic.TTXor3, logic.TTXor2.Extend(3), logic.TTMux3, logic.TTMaj3} {
		if nd3.Implements(fn) {
			t.Errorf("ND3WI should not implement %v", fn)
		}
	}
}

func TestMUX2Implements(t *testing.T) {
	mux := ComponentLibrary().Cell("MUX2")
	for _, fn := range []logic.TT{logic.TTMux3, logic.TTXor2.Extend(3), logic.TTXnor2.Extend(3),
		logic.TTAnd2.Extend(3), logic.TTNand2.Extend(3), logic.VarTT(3, 1)} {
		if !mux.Implements(fn) {
			t.Errorf("MUX2 should implement %v", fn)
		}
	}
	// A single MUX implements every 2-input function.
	for bits := uint64(0); bits < 16; bits++ {
		fn := logic.NewTT(2, bits)
		if !mux.Implements(fn) {
			t.Errorf("MUX2 should implement 2-input %v", fn)
		}
	}
	for _, fn := range []logic.TT{logic.TTXor3, logic.TTMaj3, logic.TTAnd3} {
		if mux.Implements(fn) {
			t.Errorf("MUX2 should not implement %v", fn)
		}
	}
}

func TestLUT3ImplementsEverything(t *testing.T) {
	lut := ComponentLibrary().Cell("LUT3")
	for bits := uint64(0); bits < 256; bits++ {
		if !lut.Implements(logic.NewTT(3, bits)) {
			t.Fatalf("LUT3 must implement %v", logic.NewTT(3, bits))
		}
	}
}

func TestConfigCoverage(t *testing.T) {
	arch := GranularPLB()
	counts := map[string]int{}
	for _, name := range []string{"MX", "ND3", "NDMX", "XOAMX", "XOANDMX"} {
		counts[name] = arch.Config(name).NumFunctions()
	}
	// Single-cell configs cover less than compound ones.
	if !(counts["MX"] < counts["NDMX"] && counts["NDMX"] <= counts["XOANDMX"]) {
		t.Errorf("unexpected coverage ordering: %v", counts)
	}
	// Together the granular configurations implement every 3-input
	// function — this is what makes the PLB LUT-free yet complete.
	for bits := uint64(0); bits < 256; bits++ {
		fn := logic.NewTT(3, bits)
		if arch.BestConfig(fn) == nil {
			t.Fatalf("granular PLB has no configuration for %v", fn)
		}
	}
}

func TestXor3NeedsCompoundConfig(t *testing.T) {
	arch := GranularPLB()
	best := arch.BestConfig(logic.TTXor3)
	if best == nil {
		t.Fatal("no config for XOR3")
	}
	if best.Name != "XOAMX" && best.Name != "XOANDMX" {
		t.Errorf("XOR3 mapped to %s, want a MUX-driven-MUX configuration", best.Name)
	}
	if arch.Config("MX").Implements(logic.TTXor3) {
		t.Error("a single MUX must not implement XOR3")
	}
	if arch.Config("NDMX").Implements(logic.TTXor3) {
		t.Error("NDMX must not implement XOR3 (its second cofactor cannot be XOR-like)")
	}
}

func TestConfigsFasterThanLUT(t *testing.T) {
	// Sec. 3.2: "3-input functions performed by the LUT ... are
	// performed by faster NDMX or XOAMX combinations".
	arch := GranularPLB()
	lut := arch.Config("LUT")
	for _, name := range []string{"MX", "ND3", "NDMX", "XOAMX", "XOANDMX"} {
		if c := arch.Config(name); c.Intrinsic >= lut.Intrinsic {
			t.Errorf("config %s intrinsic %v not faster than LUT %v", name, c.Intrinsic, lut.Intrinsic)
		}
	}
}

func TestGranularPLBAreaCalibration(t *testing.T) {
	lutArch, gran := LUTPLB(), GranularPLB()
	ratio := gran.Area / lutArch.Area
	if ratio < 1.19 || ratio > 1.21 {
		t.Errorf("granular/LUT PLB area ratio = %.3f, want 1.20 (Sec. 3.2)", ratio)
	}
	comb := gran.CombArea / lutArch.CombArea
	if comb < 1.25 || comb > 1.28 {
		t.Errorf("granular/LUT combinational area ratio = %.3f, want 1.266 (Sec. 3.2)", comb)
	}
}

// TestSection23PackingCombinations checks the packing flexibility list
// from Section 2.3 of the paper.
func TestSection23PackingCombinations(t *testing.T) {
	arch := GranularPLB()
	cfg := func(n string) *Config { return arch.Config(n) }
	cases := []struct {
		name string
		set  []*Config
		want bool
	}{
		{"three MX and one ND3", []*Config{cfg("MX"), cfg("MX"), cfg("MX"), cfg("ND3")}, true},
		{"one MX, one XOAMX, one ND3", []*Config{cfg("MX"), cfg("XOAMX"), cfg("ND3")}, true},
		{"a NDMX and a XOAMX", []*Config{cfg("NDMX"), cfg("XOAMX")}, true},
		{"two NDMX (one packed via the XOA)", []*Config{cfg("NDMX"), cfg("NDMX")}, true},
		{"XOANDMX plus a MX", []*Config{cfg("XOANDMX"), cfg("MX")}, true},
		{"four MX", []*Config{cfg("MX"), cfg("MX"), cfg("MX"), cfg("MX")}, false},
		{"two XOANDMX", []*Config{cfg("XOANDMX"), cfg("XOANDMX")}, false},
		{"three NDMX", []*Config{cfg("NDMX"), cfg("NDMX"), cfg("NDMX")}, false},
		{"config set plus the flip-flop", []*Config{cfg("XOANDMX"), cfg("FF")}, true},
	}
	for _, c := range cases {
		if got := arch.CanPack(c.set); got != c.want {
			t.Errorf("%s: CanPack = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFullAdderSinglePLB checks the Section 2.2 claim: the granular PLB
// implements a full adder in one block (sum and carry), while the
// LUT-based PLB cannot.
func TestFullAdderSinglePLB(t *testing.T) {
	gran, lutArch := GranularPLB(), LUTPLB()
	fa := gran.Config("FA")
	if fa == nil {
		t.Fatal("granular arch missing FA config")
	}
	if fa.Outputs != 2 {
		t.Errorf("FA outputs = %d, want 2", fa.Outputs)
	}
	if !fa.Implements(logic.TTXor3) || !fa.Implements(logic.TTMaj3) {
		t.Error("FA must produce the 3-input XOR (sum) and majority (carry)")
	}
	if !gran.CanPack([]*Config{fa}) {
		t.Error("granular PLB must host a full adder in a single block")
	}
	if !gran.CanPack([]*Config{fa, gran.Config("FF")}) {
		t.Error("granular PLB must host FA plus its flip-flop")
	}
	if lutArch.CanPack([]*Config{fa}) {
		t.Error("LUT-based PLB must NOT host a full adder in a single block (Sec. 2)")
	}
}

func TestLUTArchCoversEverythingViaLUT(t *testing.T) {
	arch := LUTPLB()
	for bits := uint64(0); bits < 256; bits++ {
		fn := logic.NewTT(3, bits)
		best := arch.BestConfig(fn)
		if best == nil {
			t.Fatalf("LUT arch has no config for %v", fn)
		}
		// Anything ND3WI can't do must land on the LUT.
		if !arch.Config("ND3").Implements(fn) && best.Name != "LUT" {
			t.Fatalf("%v mapped to %s in the LUT arch", fn, best.Name)
		}
	}
}

func TestCanPackRejectsOverflow(t *testing.T) {
	arch := LUTPLB()
	nd3 := arch.Config("ND3")
	if !arch.CanPack([]*Config{nd3, nd3}) {
		t.Error("two ND3 must fit the LUT PLB")
	}
	if !arch.CanPack([]*Config{nd3, nd3, arch.Config("LUT")}) {
		t.Error("LUT + 2×ND3 must fit")
	}
	if arch.CanPack([]*Config{nd3, nd3, nd3, nd3}) {
		t.Error("four ND3 cannot fit (LUT slot absorbs only one extra)")
	}
}

func TestCustomPLBSweepMonotonicity(t *testing.T) {
	small := CustomPLB("small", 1, 1, 1, 0, 1)
	big := CustomPLB("big", 3, 1, 2, 0, 2)
	if big.Area <= small.Area {
		t.Errorf("bigger PLB should have larger area: %v vs %v", big.Area, small.Area)
	}
	if !big.CanPack([]*Config{big.Config("XOANDMX"), big.Config("NDMX")}) {
		t.Error("big custom PLB should host XOANDMX+NDMX")
	}
}

func TestBestConfigPrefersFastSimpleGates(t *testing.T) {
	arch := GranularPLB()
	if got := arch.BestConfig(logic.TTNand3).Name; got != "ND3" {
		t.Errorf("NAND3 best config = %s, want ND3", got)
	}
	if got := arch.BestConfig(logic.TTXor2.Extend(3)).Name; got != "MX" {
		t.Errorf("XOR2 best config = %s, want MX", got)
	}
}

func TestConfigsForOrdering(t *testing.T) {
	arch := GranularPLB()
	cfgs := arch.ConfigsFor(logic.TTNand2.Extend(3))
	if len(cfgs) < 2 {
		t.Fatalf("NAND2 should be implementable by several configs, got %d", len(cfgs))
	}
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].Intrinsic < cfgs[i-1].Intrinsic {
			t.Errorf("ConfigsFor not sorted by delay")
		}
	}
	// Flexibility claim of Sec. 3.2: a 2-input NAND can also map into a
	// MUX when the ND3WI is used up.
	names := map[string]bool{}
	for _, c := range cfgs {
		names[c.Name] = true
	}
	if !names["ND3"] || !names["MX"] {
		t.Errorf("NAND2 should map to both ND3 and MX, got %v", names)
	}
}

func TestSlotSummary(t *testing.T) {
	got := GranularPLB().SlotSummary()
	want := "2×MUX2 + 1×XOA + 1×ND3WI + 1×DFF + 4×BUF"
	if got != want {
		t.Errorf("SlotSummary = %q, want %q", got, want)
	}
}

func TestHasRoleCapacity(t *testing.T) {
	var ffs Demand
	ffs[RoleDFF.Index()] = 3
	if n, err := LUTPLB().MinPLBs(&ffs); err != nil || n != 3 {
		t.Errorf("LUT arch: MinPLBs(3 FF) = %d, %v; want 3 (one DFF slot)", n, err)
	}
	noFF := CustomPLB("noff", 1, 1, 1, 0, 0)
	_, err := noFF.MinPLBs(&ffs)
	if err == nil || !strings.Contains(err.Error(), `"noff"`) || !strings.Contains(err.Error(), `"dff"`) {
		t.Errorf("custom PLB without FF: MinPLBs error = %v, want one naming the arch and role dff", err)
	}
	if noFF.Fits(&ffs, 1<<20) {
		t.Error("custom PLB without FF fits flip-flops")
	}
}

func TestMinPLBsIsSmallestFit(t *testing.T) {
	arch := GranularPLB()
	var d Demand
	if n, err := arch.MinPLBs(&d); err != nil || n != 1 {
		t.Errorf("empty demand: MinPLBs = %d, %v; want 1", n, err)
	}
	// 7 mux-role instances: 3 mux-capable slots per PLB → 3 PLBs.
	d[RoleMux.Index()] = 7
	d[RoleNand.Index()] = 2
	n, err := arch.MinPLBs(&d)
	if err != nil || n != 3 {
		t.Fatalf("MinPLBs = %d, %v; want 3", n, err)
	}
	if arch.Fits(&d, n-1) || !arch.Fits(&d, n) {
		t.Errorf("Fits disagrees with MinPLBs = %d", n)
	}
}

func TestRoleIndexCoversEveryRole(t *testing.T) {
	seen := map[int]bool{}
	for _, r := range roleOrder {
		seen[r.Index()] = true
	}
	if len(seen) != NumRoles {
		t.Errorf("roles map to %d indices, want %d", len(seen), NumRoles)
	}
	defer func() {
		if recover() == nil {
			t.Error("Index of an unknown role must panic")
		}
	}()
	Role("bogus").Index()
}

func TestNormalize3ShrinksWideFunctions(t *testing.T) {
	// A 4-input table that only depends on two inputs must match.
	fn := logic.VarTT(4, 0).And(logic.VarTT(4, 3))
	if !ComponentLibrary().Cell("ND3WI").Implements(fn) {
		t.Error("ND3WI should implement a 2-input AND expressed over 4 inputs")
	}
}

// TestCoverTableConcurrentFirstUse: archs are shared across matrix
// workers, so the lazily built cover table must be safe to build from
// several goroutines at once (run with -race).
func TestCoverTableConcurrentFirstUse(t *testing.T) {
	arch := GranularPLB()
	var d Demand
	d[RoleMux.Index()] = 3
	d[RoleNand.Index()] = 1
	var wg sync.WaitGroup
	results := make([]bool, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = arch.Fits(&d, 1)
		}(i)
	}
	wg.Wait()
	for i, ok := range results {
		if !ok {
			t.Errorf("goroutine %d: 3 mux + 1 nand do not fit one granular PLB", i)
		}
	}
}
