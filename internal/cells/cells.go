// Package cells models the VPGA component cell library, the logic
// configurations of Section 2.3 of the paper, and the two patternable
// logic block (PLB) architectures under comparison: the LUT-based PLB
// of Figure 1 (one 3-LUT, two ND3WI gates, one DFF) and the granular
// PLB of Figure 4 (three 2:1 MUXes — one of them the specially sized
// XOA — one ND3WI, one DFF).
//
// Cell characterization replaces the paper's CellRater step: every
// cell carries an area in 2-input-NAND equivalents (the unit Table 1
// uses for gate counts), an intrinsic delay, a drive resistance and an
// input capacitance, under a linear delay model
//
//	delay = Intrinsic + Drive × Cload.
//
// The constants are synthetic but calibrated to the architecture-level
// ratios the paper reports: the LUT is substantially worse than a
// simple gate when configured as a simple function, the granular PLB
// is 20% larger than the LUT-based PLB overall and has 26.6% more
// combinational area.
package cells

import (
	"fmt"

	"vpga/internal/logic"
)

// Cell is one characterized component cell.
type Cell struct {
	Name      string
	MaxInputs int
	Area      float64 // NAND2 equivalents
	Intrinsic float64 // ps
	Drive     float64 // kΩ: ps per fF of load
	InputCap  float64 // fF per input pin
	Seq       bool    // sequential element

	// impl is the set of 3-input-normalized truth tables the cell can
	// be via-configured to implement (nil for sequential cells; for the
	// LUT it is left nil and handled as "anything of ≤3 inputs").
	impl map[uint64]bool
	all3 bool // implements every 3-input function
}

// Implements reports whether the cell can be configured to compute fn,
// where fn has at most three inputs.
func (c *Cell) Implements(fn logic.TT) bool {
	if c.Seq {
		return false
	}
	if fn.N > c.MaxInputs && fn.SupportSize() > c.MaxInputs {
		return false
	}
	t3 := normalize3(fn)
	if c.all3 {
		return true
	}
	return c.impl[t3.Bits]
}

// normalize3 views fn as a 3-input table.
func normalize3(fn logic.TT) logic.TT {
	if fn.N > 3 {
		small, _ := fn.Shrink()
		if small.N > 3 {
			panic(fmt.Sprintf("cells: function %v has support > 3", fn))
		}
		fn = small
	}
	return fn.Extend(3)
}

// Library is a named set of cells.
type Library struct {
	cells map[string]*Cell
	order []string
}

// NewLibrary builds a library from the given cells.
func NewLibrary(cells ...*Cell) *Library {
	lib := &Library{cells: map[string]*Cell{}}
	for _, c := range cells {
		if _, dup := lib.cells[c.Name]; dup {
			panic("cells: duplicate cell " + c.Name)
		}
		lib.cells[c.Name] = c
		lib.order = append(lib.order, c.Name)
	}
	return lib
}

// Cell returns the named cell or nil.
func (l *Library) Cell(name string) *Cell { return l.cells[name] }

// Names returns the cell names in registration order.
func (l *Library) Names() []string { return append([]string(nil), l.order...) }

// Cells returns all cells in registration order.
func (l *Library) Cells() []*Cell {
	out := make([]*Cell, len(l.order))
	for i, n := range l.order {
		out[i] = l.cells[n]
	}
	return out
}

// literals3 returns the ten 3-input "literal" tables available at a
// via-configured cell pin: the constants and both polarities of each
// input (the PLB provides all primary inputs in both polarities).
func literals3() []logic.TT {
	out := []logic.TT{logic.ConstTT(3, false), logic.ConstTT(3, true)}
	for i := 0; i < 3; i++ {
		v := logic.VarTT(3, i)
		out = append(out, v, v.Not())
	}
	return out
}

// varLiterals3 returns just the six non-constant literals.
func varLiterals3() []logic.TT {
	return literals3()[2:]
}

// andFamily3 enumerates the functions of a NAND gate with programmable
// inversion and up to `pins` input pins: every (l1·l2·...·lk)^s with
// literals drawn from the inputs or tied to 1, k ≤ pins.
func andFamily3(pins int) map[uint64]bool {
	set := map[uint64]bool{}
	lits := append(literals3(), logic.ConstTT(3, true)) // extra 1 for unused pins
	var rec func(depth int, acc logic.TT)
	rec = func(depth int, acc logic.TT) {
		if depth == pins {
			set[acc.Bits] = true
			set[acc.Not().Bits] = true
			return
		}
		for _, l := range lits {
			rec(depth+1, acc.And(l))
		}
	}
	rec(0, logic.ConstTT(3, true))
	return set
}

// mux2Family enumerates the functions of a single via-configured 2:1
// MUX whose select and data pins can each bind to any input polarity or
// constant: MUX(sel; d0, d1).
func mux2Family() map[uint64]bool {
	set := map[uint64]bool{}
	for _, s := range varLiterals3() {
		for _, d0 := range literals3() {
			for _, d1 := range literals3() {
				set[logic.Mux(s, d0, d1).Bits] = true
			}
		}
	}
	// Constant select degenerates to a literal pass-through.
	for _, l := range literals3() {
		set[l.Bits] = true
	}
	return set
}

// Characterized component cells. The values are this library's
// calibration (see the package comment); they are consistent across
// both PLB architectures so that every reported comparison is a ratio
// under one model.
func makeComponentCells() []*Cell {
	inv := logic.VarTT(1, 0).Not().Extend(3)
	buf := logic.VarTT(1, 0).Extend(3)
	return []*Cell{
		{Name: "INV", MaxInputs: 1, Area: 0.50, Intrinsic: 15, Drive: 2.0, InputCap: 2.0,
			impl: map[uint64]bool{inv.Bits: true}},
		{Name: "BUF", MaxInputs: 1, Area: 0.75, Intrinsic: 30, Drive: 1.2, InputCap: 2.0,
			impl: map[uint64]bool{buf.Bits: true}},
		{Name: "ND3WI", MaxInputs: 3, Area: 1.25, Intrinsic: 40, Drive: 2.5, InputCap: 2.5,
			impl: andFamily3(3)},
		{Name: "MUX2", MaxInputs: 3, Area: 1.75, Intrinsic: 50, Drive: 2.5, InputCap: 2.0,
			impl: mux2Family()},
		// XOA: a 2:1 MUX sized to minimize logic delay, usable as an
		// XOR or as a ND2WI element (Sec. 2.2).
		{Name: "XOA", MaxInputs: 3, Area: 2.00, Intrinsic: 45, Drive: 2.0, InputCap: 2.5,
			impl: unionSets(mux2Family(), andFamily3(2))},
		// LUT3: any 3-input function, but substantially worse than the
		// equivalent simple gate in delay and area ([10], Sec. 2).
		{Name: "LUT3", MaxInputs: 3, Area: 6.00, Intrinsic: 110, Drive: 3.0, InputCap: 3.0, all3: true},
		{Name: "DFF", MaxInputs: 1, Area: 4.50, Intrinsic: 80, Drive: 2.5, InputCap: 2.0, Seq: true},
	}
}

func unionSets(sets ...map[uint64]bool) map[uint64]bool {
	out := map[uint64]bool{}
	for _, s := range sets {
		for k := range s {
			out[k] = true
		}
	}
	return out
}

// ComponentLibrary returns the full characterized component library
// shared by both PLB architectures.
func ComponentLibrary() *Library { return NewLibrary(makeComponentCells()...) }
