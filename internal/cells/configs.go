package cells

import (
	"fmt"
	"sort"

	"vpga/internal/logic"
)

// Role names a kind of PLB component slot a configuration consumes.
type Role string

// Roles a configuration may require. NAND2-role demands can be served
// by either a ND3WI slot or the XOA (which "also functions as a ND2WI
// element", Sec. 2.3); MUX-role demands by a MUX2 or XOA slot.
const (
	RoleMux  Role = "mux"
	RoleXoa  Role = "xoa" // a first-stage MUX; prefers the XOA slot
	RoleNand Role = "nand"
	RoleNd2  Role = "nand2"
	// RoleSimple2 marks a 2-input AND-family function, which the paper
	// notes can be packed onto the ND3WI *or* absorbed into a MUX
	// ("a 2-input Nand function on a non-critical path can be mapped
	// into a MUX ... allowing an extra function to be packed",
	// Sec. 3.2). Every combinational slot serves it.
	RoleSimple2 Role = "simple2"
	RoleLUT     Role = "lut"
	RoleDFF     Role = "dff"
	// RoleBuf is a programmable buffer slot; each PLB carries a few
	// for polarity generation and repeater duty.
	RoleBuf Role = "buf"
)

// NumRoles is the number of roles; a Demand has one count per role.
const NumRoles = 8

// roleOrder fixes each role's position in a Demand and its bit in a
// role-subset mask.
var roleOrder = [NumRoles]Role{RoleMux, RoleXoa, RoleNand, RoleNd2, RoleSimple2, RoleLUT, RoleDFF, RoleBuf}

// Index returns r's position in a Demand. It panics on a string that
// is not one of the Role constants.
func (r Role) Index() int {
	for i, x := range roleOrder {
		if x == r {
			return i
		}
	}
	panic(fmt.Sprintf("cells: unknown role %q", r))
}

// Demand counts role instances, indexed by Role.Index.
type Demand [NumRoles]int

// Add adds k times the roles c consumes (k < 0 removes them); a nil c
// consumes none.
func (d *Demand) Add(c *Config, k int) {
	if c == nil {
		return
	}
	for _, r := range c.Roles {
		d[r.Index()] += k
	}
}

// Config is one of the logic configurations of Section 2.3: a way of
// wiring one or more PLB components to realize a (≤3-input) function.
type Config struct {
	Name  string
	Roles []Role // component slots consumed
	// Area is the silicon the configuration occupies inside the PLB,
	// the sum of its component areas (used for the "smaller part of the
	// PLB than the LUT" accounting of Sec. 3.2).
	Area float64
	// Intrinsic is the worst pin-to-output intrinsic delay through the
	// configuration's stages.
	Intrinsic float64
	// Drive and InputCap describe the output stage and input pins.
	Drive, InputCap float64
	// Outputs is the number of outputs the configuration produces
	// (2 for the full-adder macro, otherwise 1).
	Outputs int

	impl map[uint64]bool
	all3 bool
}

// Implements reports whether the configuration realizes fn (≤3 inputs).
func (c *Config) Implements(fn logic.TT) bool {
	if c.all3 {
		return true
	}
	return c.impl[normalize3(fn).Bits]
}

// NumFunctions returns how many of the 256 3-input tables the
// configuration implements.
func (c *Config) NumFunctions() int {
	if c.all3 {
		return 256
	}
	return len(c.impl)
}

// buildConfigs constructs the configuration menagerie from the
// component library. The structural enumerations mirror Figures 3–5:
//
//	MX       a single 2:1 MUX
//	ND3      a single ND3WI gate
//	NDMX     a 2:1 MUX driven by a single ND2WI gate
//	XOAMX    a 2:1 MUX driven by another 2:1 MUX (the XOA), with the
//	         programmable inverter of Fig. 3 available on the XOA output
//	XOANDMX  a 2:1 MUX driven by a 2:1 MUX and a ND3WI gate
//	LUT      a single 3-LUT (LUT-based PLB only)
//	FF       the D flip-flop
func buildConfigs(lib *Library) []*Config {
	mux := lib.Cell("MUX2")
	xoa := lib.Cell("XOA")
	nd3 := lib.Cell("ND3WI")
	lut := lib.Cell("LUT3")
	dff := lib.Cell("DFF")

	lits := literals3()
	varLits := varLiterals3()

	// First-stage output families.
	nd2outs := setToTTs(andFamily3(2))
	nd3outs := setToTTs(andFamily3(3))
	muxouts := setToTTs(mux2Family())

	// secondStage enumerates MUX(sel; a, b) over all assignments where
	// the two data pins draw from dataA/dataB (in both orders), with
	// the programmable inverter available on stage-one outputs when
	// invert is set.
	secondStage := func(dataA, dataB []logic.TT, invertA bool) map[uint64]bool {
		set := map[uint64]bool{}
		for _, s := range varLits {
			for _, a := range dataA {
				cands := []logic.TT{a}
				if invertA {
					cands = append(cands, a.Not())
				}
				for _, av := range cands {
					for _, b := range dataB {
						set[logic.Mux(s, av, b).Bits] = true
						set[logic.Mux(s, b, av).Bits] = true
					}
				}
			}
		}
		return set
	}

	ndmx := secondStage(nd2outs, lits, false)
	xoamx := secondStage(muxouts, lits, true)
	xoandmx := map[uint64]bool{}
	for _, s := range varLits {
		for _, m := range muxouts {
			// The programmable inverter lets the second MUX select
			// between the XOA output and its complement — the Sec. 2.2
			// sum-function wiring, which yields the 3-input XOR/XNOR.
			xoamx[logic.Mux(s, m, m.Not()).Bits] = true
			for _, mv := range []logic.TT{m, m.Not()} {
				for _, nd := range nd3outs {
					xoandmx[logic.Mux(s, mv, nd).Bits] = true
					xoandmx[logic.Mux(s, nd, mv).Bits] = true
				}
			}
		}
	}
	// Everything XOAMX reaches, XOANDMX reaches too (leave the ND3WI
	// unused or tied off).
	for k := range xoamx {
		xoandmx[k] = true
	}

	cfgs := []*Config{
		{Name: "MX", Roles: []Role{RoleMux}, Area: mux.Area,
			Intrinsic: mux.Intrinsic, Drive: mux.Drive, InputCap: mux.InputCap,
			impl: mux2Family()},
		// ND2 carries the 2-input AND family: functionally a ND3WI with
		// a tied pin, but flexible at packing time (RoleSimple2).
		{Name: "ND2", Roles: []Role{RoleSimple2}, Area: nd3.Area,
			Intrinsic: nd3.Intrinsic, Drive: nd3.Drive, InputCap: nd3.InputCap,
			impl: andFamily3(2)},
		{Name: "ND3", Roles: []Role{RoleNand}, Area: nd3.Area,
			Intrinsic: nd3.Intrinsic, Drive: nd3.Drive, InputCap: nd3.InputCap,
			impl: andFamily3(3)},
		{Name: "NDMX", Roles: []Role{RoleNd2, RoleMux}, Area: nd3.Area + mux.Area,
			Intrinsic: nd3.Intrinsic + mux.Intrinsic, Drive: mux.Drive, InputCap: nd3.InputCap,
			impl: ndmx},
		{Name: "XOAMX", Roles: []Role{RoleXoa, RoleMux}, Area: xoa.Area + mux.Area,
			Intrinsic: xoa.Intrinsic + mux.Intrinsic, Drive: mux.Drive, InputCap: xoa.InputCap,
			impl: xoamx},
		{Name: "XOANDMX", Roles: []Role{RoleXoa, RoleNand, RoleMux},
			Area:      xoa.Area + nd3.Area + mux.Area,
			Intrinsic: maxf(xoa.Intrinsic, nd3.Intrinsic) + mux.Intrinsic,
			Drive:     mux.Drive, InputCap: xoa.InputCap,
			impl: xoandmx},
		{Name: "LUT", Roles: []Role{RoleLUT}, Area: lut.Area,
			Intrinsic: lut.Intrinsic, Drive: lut.Drive, InputCap: lut.InputCap,
			all3: true},
		// FA is the Section 2.2 full adder: the XOA computes the
		// propagate P = A⊕B, a second MUX the sum P⊕Cin (through the
		// programmable inverter), a third MUX the carry P·Cin + P'·G,
		// and the ND3WI the generate G = A·B. Two outputs, one PLB.
		{Name: "FA", Roles: []Role{RoleXoa, RoleMux, RoleMux, RoleNand}, Outputs: 2,
			Area:      xoa.Area + 2*mux.Area + nd3.Area,
			Intrinsic: maxf(xoa.Intrinsic, nd3.Intrinsic) + mux.Intrinsic,
			Drive:     mux.Drive, InputCap: xoa.InputCap,
			impl: map[uint64]bool{logic.TTXor3.Bits: true, logic.TTMaj3.Bits: true}},
		{Name: "FF", Roles: []Role{RoleDFF}, Area: dff.Area,
			Intrinsic: dff.Intrinsic, Drive: dff.Drive, InputCap: dff.InputCap},
		{Name: "BUF", Roles: []Role{RoleBuf}, Area: lib.Cell("BUF").Area,
			Intrinsic: lib.Cell("BUF").Intrinsic, Drive: lib.Cell("BUF").Drive,
			InputCap: lib.Cell("BUF").InputCap,
			impl:     map[uint64]bool{logic.VarTT(1, 0).Extend(3).Bits: true}},
	}
	for _, c := range cfgs {
		if c.Outputs == 0 {
			c.Outputs = 1
		}
	}
	return cfgs
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func setToTTs(set map[uint64]bool) []logic.TT {
	keys := make([]uint64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]logic.TT, len(keys))
	for i, k := range keys {
		out[i] = logic.NewTT(3, k)
	}
	return out
}
