// Package viamap generates the via personalization of a packed VPGA:
// for every configuration instance it derives the concrete component
// programming (pin-to-literal bindings, constant ties, programmable
// inversions, LUT row values) and tallies populated versus potential
// via sites per PLB and for the whole fabric.
//
// This is the "via-patterned" part of the Via-Patterned Gate Array:
// where an FPGA stores its configuration in SRAM bits, the VPGA
// realizes it as vias placed at a subset of the potential via sites.
// The paper's core economic argument (Sec. 1–2) is that "greater
// configurability only results in an increase in potential via sites"
// whose silicon cost is far below SRAM configuration, which is what
// makes the granular PLB affordable. The package quantifies that:
// potential sites per PLB, populated vias per instance, and the
// SRAM-bit count an equivalent FPGA block would need.
package viamap

import (
	"fmt"
	"strings"

	"vpga/internal/cells"
	"vpga/internal/logic"
)

// Source describes what a component input pin is via-connected to.
type Source struct {
	// Kind is "input" (a PLB input, Index = leaf position), "const"
	// (tie to rail, Index = 0/1), or "stage" (an intermediate component
	// output inside the PLB, Name = producing stage).
	Kind  string
	Index int
	Neg   bool // through the complemented polarity rail
	Name  string
}

// String renders the source, e.g. "~in1", "0", "stage:xoa".
func (s Source) String() string {
	switch s.Kind {
	case "const":
		return fmt.Sprintf("%d", s.Index)
	case "stage":
		out := "stage:" + s.Name
		if s.Neg {
			out = "~" + out
		}
		return out
	default:
		out := fmt.Sprintf("in%d", s.Index)
		if s.Neg {
			out = "~" + out
		}
		return out
	}
}

// CellProgram is the via personalization of one component cell.
type CellProgram struct {
	Component string // "ND3WI", "MUX2", "XOA", "LUT3"
	Stage     string // role of this cell inside the configuration
	// Pins lists the input bindings; for a MUX the order is d0, d1,
	// sel; for ND3WI the three NAND pins.
	Pins []Source
	// OutputInvert engages the programmable output inversion.
	OutputInvert bool
	// LUTRows holds the 8 personality vias of a LUT3 (row value true =
	// via to the high rail).
	LUTRows []bool
}

// Vias counts the populated via sites of this cell program: one per
// bound pin, one for an engaged output inversion, one per LUT row.
func (c *CellProgram) Vias() int {
	n := len(c.Pins)
	if c.OutputInvert {
		n++
	}
	n += len(c.LUTRows)
	return n
}

// InstanceProgram is the personalization of one configuration
// instance.
type InstanceProgram struct {
	Config string
	Cells  []CellProgram
}

// Vias sums the instance's populated via sites plus one output-column
// via per instance output.
func (p *InstanceProgram) Vias() int {
	n := 1
	for i := range p.Cells {
		n += p.Cells[i].Vias()
	}
	return n
}

// String renders the program compactly.
func (p *InstanceProgram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s{", p.Config)
	for i := range p.Cells {
		c := &p.Cells[i]
		if i > 0 {
			sb.WriteString("; ")
		}
		fmt.Fprintf(&sb, "%s(", c.Stage)
		for j, pin := range c.Pins {
			if j > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(pin.String())
		}
		sb.WriteString(")")
		if c.OutputInvert {
			sb.WriteString("'")
		}
		if len(c.LUTRows) > 0 {
			sb.WriteString("=")
			for r := len(c.LUTRows) - 1; r >= 0; r-- {
				if c.LUTRows[r] {
					sb.WriteString("1")
				} else {
					sb.WriteString("0")
				}
			}
		}
	}
	sb.WriteString("}")
	return sb.String()
}

// literal sources available at a via-configured pin over k PLB inputs.
func pinSources(k int) []Source {
	out := []Source{{Kind: "const", Index: 0}, {Kind: "const", Index: 1}}
	for i := 0; i < k; i++ {
		out = append(out, Source{Kind: "input", Index: i}, Source{Kind: "input", Index: i, Neg: true})
	}
	return out
}

// sourceTT returns the 3-input table a source contributes.
func sourceTT(s Source, stage logic.TT) logic.TT {
	switch s.Kind {
	case "const":
		return logic.ConstTT(3, s.Index == 1)
	case "stage":
		if s.Neg {
			return stage.Not()
		}
		return stage
	default:
		t := logic.VarTT(3, s.Index)
		if s.Neg {
			return t.Not()
		}
		return t
	}
}

// Program derives the via personalization of one configuration
// instance computing fn (≤3 inputs, normalized to 3). The returned
// program is verified: re-evaluating the bound structure reproduces fn
// exactly.
func Program(cfgName string, fn logic.TT) (*InstanceProgram, error) {
	t := normalize3(fn)
	switch cfgName {
	case "ND2", "ND3":
		return solveNand(cfgName, t)
	case "MX":
		return solveMux("MX", "mx", t)
	case "NDMX":
		return solveNDMX(t)
	case "XOAMX":
		return solveXOAMX(t)
	case "XOANDMX":
		return solveXOANDMX(t)
	case "LUT":
		return solveLUT(t)
	case "FA":
		return solveFAHalf(t)
	default:
		return nil, fmt.Errorf("viamap: unknown configuration %q", cfgName)
	}
}

func normalize3(fn logic.TT) logic.TT {
	if fn.N < 3 {
		return fn.Extend(3)
	}
	if fn.N == 3 {
		return fn
	}
	small, _ := fn.Shrink()
	if small.N > 3 {
		panic("viamap: function support exceeds 3")
	}
	return small.Extend(3)
}

// solveNand personalizes a ND3WI: fn = (l0·l1·l2)^inv.
func solveNand(name string, t logic.TT) (*InstanceProgram, error) {
	srcs := pinSources(3)
	for _, out := range []bool{true, false} { // NAND (inverted output) first: it is the native gate
		var rec func(depth int, acc logic.TT, pins []Source) *InstanceProgram
		rec = func(depth int, acc logic.TT, pins []Source) *InstanceProgram {
			if depth == 3 {
				got := acc
				if out {
					got = got.Not()
				}
				if got != t {
					return nil
				}
				return &InstanceProgram{Config: name, Cells: []CellProgram{{
					Component: "ND3WI", Stage: "nd",
					Pins: append([]Source(nil), pins...), OutputInvert: out,
				}}}
			}
			for _, s := range srcs {
				if p := rec(depth+1, acc.And(sourceTT(s, logic.TT{})), append(pins, s)); p != nil {
					return p
				}
			}
			return nil
		}
		if p := rec(0, logic.ConstTT(3, true), nil); p != nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("viamap: %v is not an AND-family function", t)
}

// solveMux personalizes one 2:1 MUX: fn = MUX(sel; d0, d1).
func solveMux(cfg, stage string, t logic.TT) (*InstanceProgram, error) {
	cell, err := muxCell(stage, t)
	if err != nil {
		return nil, err
	}
	return &InstanceProgram{Config: cfg, Cells: []CellProgram{*cell}}, nil
}

func muxCell(stage string, t logic.TT) (*CellProgram, error) {
	srcs := pinSources(3)
	comp := "MUX2"
	if strings.HasPrefix(stage, "xoa") {
		comp = "XOA"
	}
	for _, sel := range srcs[2:] { // constant select degenerates; skip
		for _, d0 := range srcs {
			for _, d1 := range srcs {
				got := logic.Mux(sourceTT(sel, logic.TT{}), sourceTT(d0, logic.TT{}), sourceTT(d1, logic.TT{}))
				if got == t {
					return &CellProgram{Component: comp, Stage: stage, Pins: []Source{d0, d1, sel}}, nil
				}
			}
		}
	}
	// Pass-through of a literal (constant select).
	for _, d := range srcs {
		if sourceTT(d, logic.TT{}) == t {
			return &CellProgram{Component: comp, Stage: stage,
				Pins: []Source{d, d, {Kind: "const", Index: 0}}}, nil
		}
	}
	return nil, fmt.Errorf("viamap: %v is not a single-MUX function", t)
}

// nd2Programs enumerates ND2WI stage programs: (l0·l1)^inv with a
// distinguished stage name.
func nd2Programs() []struct {
	cell CellProgram
	tt   logic.TT
} {
	srcs := pinSources(3)
	var out []struct {
		cell CellProgram
		tt   logic.TT
	}
	for _, inv := range []bool{true, false} {
		for _, a := range srcs {
			for _, b := range srcs {
				t := sourceTT(a, logic.TT{}).And(sourceTT(b, logic.TT{}))
				if inv {
					t = t.Not()
				}
				out = append(out, struct {
					cell CellProgram
					tt   logic.TT
				}{CellProgram{Component: "ND3WI", Stage: "nd",
					Pins: []Source{a, b, {Kind: "const", Index: 1}}, OutputInvert: inv}, t})
			}
		}
	}
	return out
}

// muxPrograms enumerates first-stage MUX programs over the PLB inputs.
func muxPrograms(stage string) []struct {
	cell CellProgram
	tt   logic.TT
} {
	srcs := pinSources(3)
	var out []struct {
		cell CellProgram
		tt   logic.TT
	}
	comp := "MUX2"
	if strings.HasPrefix(stage, "xoa") {
		comp = "XOA"
	}
	for _, sel := range srcs[2:] {
		for _, d0 := range srcs {
			for _, d1 := range srcs {
				t := logic.Mux(sourceTT(sel, logic.TT{}), sourceTT(d0, logic.TT{}), sourceTT(d1, logic.TT{}))
				out = append(out, struct {
					cell CellProgram
					tt   logic.TT
				}{CellProgram{Component: comp, Stage: stage, Pins: []Source{d0, d1, sel}}, t})
			}
		}
	}
	return out
}

// solveSecondStage finds MUX(sel; A, B) == t where A, B draw from the
// provided stage outputs and literals.
func solveSecondStage(cfg string, t logic.TT, stages []struct {
	cell CellProgram
	tt   logic.TT
}, allowInvStage bool, extra []CellProgram) (*InstanceProgram, error) {
	srcs := pinSources(3)
	lits := make([]struct {
		src Source
		tt  logic.TT
	}, 0, len(srcs))
	for _, s := range srcs {
		lits = append(lits, struct {
			src Source
			tt  logic.TT
		}{s, sourceTT(s, logic.TT{})})
	}
	for si := range stages {
		st := &stages[si]
		stageSrcs := []Source{{Kind: "stage", Name: st.cell.Stage}}
		if allowInvStage {
			stageSrcs = append(stageSrcs, Source{Kind: "stage", Name: st.cell.Stage, Neg: true})
		}
		for _, sel := range srcs[2:] {
			selTT := sourceTT(sel, logic.TT{})
			for _, sd := range stageSrcs {
				sdTT := sourceTT(sd, st.tt)
				// Stage on d0, literal on d1 — and the converse. Also
				// stage vs inverted-stage (the XOR3 wiring).
				for _, l := range lits {
					if logic.Mux(selTT, sdTT, l.tt) == t {
						return assemble(cfg, st.cell, extra, []Source{sd, l.src, sel}), nil
					}
					if logic.Mux(selTT, l.tt, sdTT) == t {
						return assemble(cfg, st.cell, extra, []Source{l.src, sd, sel}), nil
					}
				}
				if allowInvStage {
					inv := Source{Kind: "stage", Name: st.cell.Stage, Neg: !sd.Neg}
					if logic.Mux(selTT, sdTT, sourceTT(inv, st.tt)) == t {
						return assemble(cfg, st.cell, extra, []Source{sd, inv, sel}), nil
					}
				}
			}
		}
	}
	return nil, fmt.Errorf("viamap: no %s decomposition for %v", cfg, t)
}

func assemble(cfg string, stage CellProgram, extra []CellProgram, outPins []Source) *InstanceProgram {
	cells := []CellProgram{stage}
	cells = append(cells, extra...)
	cells = append(cells, CellProgram{Component: "MUX2", Stage: "mx", Pins: outPins})
	return &InstanceProgram{Config: cfg, Cells: cells}
}

func solveNDMX(t logic.TT) (*InstanceProgram, error) {
	return solveSecondStage("NDMX", t, nd2Programs(), false, nil)
}

func solveXOAMX(t logic.TT) (*InstanceProgram, error) {
	return solveSecondStage("XOAMX", t, muxPrograms("xoa"), true, nil)
}

func solveXOANDMX(t logic.TT) (*InstanceProgram, error) {
	// Try MUX(sel; xoa-stage, nd-stage) with both stage families live.
	srcs := pinSources(3)
	muxes := muxPrograms("xoa")
	nands := nd2ProgramsWide()
	for _, sel := range srcs[2:] {
		selTT := sourceTT(sel, logic.TT{})
		for mi := range muxes {
			for _, mneg := range []bool{false, true} {
				mTT := muxes[mi].tt
				if mneg {
					mTT = mTT.Not()
				}
				mSrc := Source{Kind: "stage", Name: "xoa", Neg: mneg}
				for ni := range nands {
					nSrc := Source{Kind: "stage", Name: "nd"}
					if logic.Mux(selTT, mTT, nands[ni].tt) == t {
						return assemble("XOANDMX", muxes[mi].cell, []CellProgram{nands[ni].cell},
							[]Source{mSrc, nSrc, sel}), nil
					}
					if logic.Mux(selTT, nands[ni].tt, mTT) == t {
						return assemble("XOANDMX", muxes[mi].cell, []CellProgram{nands[ni].cell},
							[]Source{nSrc, mSrc, sel}), nil
					}
				}
			}
		}
	}
	// Degenerate: the pure XOAMX wiring with the ND3WI tied off.
	if p, err := solveSecondStage("XOANDMX", t, muxes, true, nil); err == nil {
		return p, nil
	}
	return nil, fmt.Errorf("viamap: no XOANDMX decomposition for %v", t)
}

// nd2ProgramsWide enumerates full 3-input ND3WI stage programs.
func nd2ProgramsWide() []struct {
	cell CellProgram
	tt   logic.TT
} {
	srcs := pinSources(3)
	var out []struct {
		cell CellProgram
		tt   logic.TT
	}
	for _, inv := range []bool{true, false} {
		for _, a := range srcs {
			for _, b := range srcs {
				for _, c := range srcs {
					t := sourceTT(a, logic.TT{}).And(sourceTT(b, logic.TT{})).And(sourceTT(c, logic.TT{}))
					if inv {
						t = t.Not()
					}
					out = append(out, struct {
						cell CellProgram
						tt   logic.TT
					}{CellProgram{Component: "ND3WI", Stage: "nd",
						Pins: []Source{a, b, c}, OutputInvert: inv}, t})
				}
			}
		}
	}
	return out
}

// solveLUT personalizes a LUT3: one via per truth-table row.
func solveLUT(t logic.TT) (*InstanceProgram, error) {
	rows := make([]bool, 8)
	for r := uint(0); r < 8; r++ {
		rows[r] = t.Eval(r)
	}
	return &InstanceProgram{Config: "LUT", Cells: []CellProgram{{
		Component: "LUT3", Stage: "lut",
		Pins:    []Source{{Kind: "input", Index: 0}, {Kind: "input", Index: 1}, {Kind: "input", Index: 2}},
		LUTRows: rows,
	}}}, nil
}

// solveFAHalf personalizes one output of the FA macro (sum or carry);
// the two halves share the propagate XOA and the generate ND3WI.
func solveFAHalf(t logic.TT) (*InstanceProgram, error) {
	switch {
	case isXorClass(t):
		// sum = P ⊕ in2, P = in0 ⊕ in1 on the XOA; the second MUX
		// selects between P and ~P (the Fig. 3 inverter path).
		xoa, err := muxCell("xoa", logic.VarTT(3, 0).Xor(logic.VarTT(3, 1)))
		if err != nil {
			return nil, err
		}
		prog := assemble("FA", *xoa, nil, []Source{
			{Kind: "stage", Name: "xoa"},
			{Kind: "stage", Name: "xoa", Neg: true},
			{Kind: "input", Index: 2},
		})
		if t == logic.TTXnor3 {
			prog.Cells[len(prog.Cells)-1].OutputInvert = true
		}
		return prog, nil
	default:
		// carry = MUX(P; G, Cin) with G = in0·in1 on the ND3WI,
		// possibly with input polarities folded in (NPN variants).
		nands := nd2ProgramsWide()
		muxes := muxPrograms("xoa")
		for mi := range muxes {
			for ni := range nands {
				for _, cinNeg := range []bool{false, true} {
					cin := logic.VarTT(3, 2)
					if cinNeg {
						cin = cin.Not()
					}
					got := logic.Mux(muxes[mi].tt, nands[ni].tt, cin)
					if got == t {
						return &InstanceProgram{Config: "FA", Cells: []CellProgram{
							muxes[mi].cell, nands[ni].cell,
							{Component: "MUX2", Stage: "mx", Pins: []Source{
								{Kind: "stage", Name: "nd"},
								{Kind: "input", Index: 2, Neg: cinNeg},
								{Kind: "stage", Name: "xoa"},
							}},
						}}, nil
					}
				}
			}
		}
		return nil, fmt.Errorf("viamap: %v is not a full-adder carry variant", t)
	}
}

func isXorClass(t logic.TT) bool {
	return t == logic.TTXor3 || t == logic.TTXnor3
}

// Verify re-evaluates an instance program and checks it computes fn.
func Verify(p *InstanceProgram, fn logic.TT) error {
	t := normalize3(fn)
	stageVals := map[string]logic.TT{}
	var final logic.TT
	for i := range p.Cells {
		c := &p.Cells[i]
		var out logic.TT
		switch {
		case len(c.LUTRows) > 0:
			bits := uint64(0)
			for r, v := range c.LUTRows {
				if v {
					bits |= 1 << uint(r)
				}
			}
			out = logic.NewTT(3, bits)
		case c.Component == "ND3WI":
			out = logic.ConstTT(3, true)
			for _, pin := range c.Pins {
				out = out.And(sourceTT(pin, stageVals[pin.Name]))
			}
			if c.OutputInvert {
				out = out.Not()
			}
		default: // MUX2 / XOA
			d0 := sourceTT(c.Pins[0], stageVals[c.Pins[0].Name])
			d1 := sourceTT(c.Pins[1], stageVals[c.Pins[1].Name])
			sel := sourceTT(c.Pins[2], stageVals[c.Pins[2].Name])
			out = logic.Mux(sel, d0, d1)
			if c.OutputInvert {
				out = out.Not()
			}
		}
		stageVals[c.Stage] = out
		final = out
	}
	if final != t {
		return fmt.Errorf("viamap: program %s computes %v, want %v", p, final, t)
	}
	return nil
}

// PotentialSites estimates the potential via sites of one PLB tile:
// for every component input pin, one site per reachable source (both
// polarities of each PLB input, the two rails, and each other
// component output); one output-inversion site per combinational
// component; 8 personality sites per LUT; one output-column site per
// component.
func PotentialSites(arch *cells.PLBArch) int {
	comb := 0
	for _, s := range arch.Slots {
		if s.Component != "DFF" {
			comb++
		}
	}
	// Sources visible to a pin: 2 rails + 2×3 input polarities +
	// other component outputs.
	sources := 2 + 2*3 + (comb - 1)
	sites := 0
	for _, s := range arch.Slots {
		switch s.Component {
		case "DFF":
			sites += sources // D-pin column
			continue
		case "LUT3":
			sites += 8 // personality
		}
		c := arch.Library().Cell(s.Component)
		sites += c.MaxInputs * sources
		sites += 1 // output inversion
		sites += 1 // output column
	}
	return sites
}

// SRAMBitsEquivalent estimates the SRAM configuration bits an
// FPGA-style implementation of the same block would need: one bit per
// potential via site (each site's presence/absence is one bit of
// configuration), which is the apples-to-apples comparison behind the
// paper's "the area cost for such heterogeneity is far less for a
// VPGA than for SRAM programmed fabrics".
func SRAMBitsEquivalent(arch *cells.PLBArch) int { return PotentialSites(arch) }
