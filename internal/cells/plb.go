package cells

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"vpga/internal/logic"
)

// Slot is one component position inside a PLB.
type Slot struct {
	Component string // component cell name
	Serves    []Role // roles this slot can absorb
}

// PLBArch describes one patternable logic block architecture.
type PLBArch struct {
	Name  string
	Slots []Slot
	// Area is the full PLB tile area (NAND2 equivalents), including the
	// local via-configurable interconnect and polarity buffers; it is
	// larger than the sum of component areas.
	Area float64
	// CombArea is the combinational portion of the tile.
	CombArea float64
	// Configs the architecture's packer recognizes, in preference
	// order (fastest/smallest first for a matched function).
	Configs []*Config

	lib       *Library
	configIdx map[string]*Config

	// cover[S] counts the slots serving at least one role of the role
	// subset S (a bit mask over Role.Index); built once, on first use,
	// because archs are shared across goroutines.
	coverOnce sync.Once
	cover     [1 << NumRoles]int
}

// Library returns the shared component library.
func (a *PLBArch) Library() *Library { return a.lib }

// Config returns the named configuration or nil.
func (a *PLBArch) Config(name string) *Config { return a.configIdx[name] }

// LUTPLB returns the LUT-based heterogeneous PLB of Figure 1: one
// 3-LUT, two ND3WI gates and a D flip-flop.
func LUTPLB() *PLBArch {
	lib := ComponentLibrary()
	cfgs := buildConfigs(lib)
	byName := indexConfigs(cfgs)
	a := &PLBArch{
		Name: "lut-plb",
		Slots: []Slot{
			{Component: "LUT3", Serves: []Role{RoleLUT, RoleNand, RoleNd2, RoleMux, RoleXoa, RoleSimple2}},
			{Component: "ND3WI", Serves: []Role{RoleNand, RoleNd2, RoleSimple2}},
			{Component: "ND3WI", Serves: []Role{RoleNand, RoleNd2, RoleSimple2}},
			{Component: "DFF", Serves: []Role{RoleDFF}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
		},
		// Calibration (see DESIGN.md §5): combinational area 8.5, tile
		// area 14.0 with the flip-flop and local interconnect overhead.
		Area:     14.0,
		CombArea: 8.5,
		Configs:  []*Config{byName["ND2"], byName["ND3"], byName["LUT"], byName["FF"]},
		lib:      lib, configIdx: byName,
	}
	return a
}

// GranularPLB returns the granular heterogeneous PLB of Figure 4: two
// 2:1 MUXes, the XOA MUX, one ND3WI gate and a D flip-flop, with
// programmable buffers providing both polarities of every input.
func GranularPLB() *PLBArch {
	lib := ComponentLibrary()
	cfgs := buildConfigs(lib)
	byName := indexConfigs(cfgs)
	a := &PLBArch{
		Name: "granular-plb",
		Slots: []Slot{
			{Component: "MUX2", Serves: []Role{RoleMux, RoleXoa, RoleSimple2}},
			{Component: "MUX2", Serves: []Role{RoleMux, RoleXoa, RoleSimple2}},
			// The XOA also functions as a ND2WI element (Sec. 2.3).
			{Component: "XOA", Serves: []Role{RoleMux, RoleXoa, RoleNd2, RoleSimple2}},
			{Component: "ND3WI", Serves: []Role{RoleNand, RoleNd2, RoleSimple2}},
			{Component: "DFF", Serves: []Role{RoleDFF}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
		},
		// Calibration: +26.6% combinational area and 1.20× tile area
		// versus the LUT-based PLB (Sec. 3.2).
		Area:     16.8,
		CombArea: 10.76,
		Configs: []*Config{byName["ND2"], byName["ND3"], byName["MX"], byName["NDMX"],
			byName["XOAMX"], byName["XOANDMX"], byName["FA"], byName["FF"]},
		lib: lib, configIdx: byName,
	}
	return a
}

// MaxSlots bounds each component count of a custom PLB that a request
// may ask for (core.ArchSpec.Resolve enforces it). It is far above any
// architecture the paper or the sweeps use (at most 4 of a kind), and
// it keeps a request from making CustomPLB allocate without bound.
const MaxSlots = 64

// CustomPLB builds a parameterized PLB for the granularity-sweep
// ablation (E8): nMux general MUXes, nXoa XOA MUXes, nNand ND3WI gates,
// nLut 3-LUTs and nFF flip-flops. Tile area follows a simple
// via-interconnect model: 1.30× the summed component area plus 0.35
// per component pin (each pin needs a column of potential via sites).
func CustomPLB(name string, nMux, nXoa, nNand, nLut, nFF int) *PLBArch {
	lib := ComponentLibrary()
	cfgs := buildConfigs(lib)
	byName := indexConfigs(cfgs)
	a := &PLBArch{Name: name, lib: lib, configIdx: byName}
	addSlots := func(n int, comp string, serves ...Role) {
		for i := 0; i < n; i++ {
			a.Slots = append(a.Slots, Slot{Component: comp, Serves: serves})
		}
	}
	addSlots(nMux, "MUX2", RoleMux, RoleXoa, RoleSimple2)
	addSlots(nXoa, "XOA", RoleMux, RoleXoa, RoleNd2, RoleSimple2)
	addSlots(nNand, "ND3WI", RoleNand, RoleNd2, RoleSimple2)
	addSlots(nLut, "LUT3", RoleLUT, RoleNand, RoleNd2, RoleMux, RoleXoa, RoleSimple2)
	addSlots(nFF, "DFF", RoleDFF)
	addSlots(4, "BUF", RoleBuf)
	comb, pins := 0.0, 0
	for _, s := range a.Slots {
		c := lib.Cell(s.Component)
		if !c.Seq {
			comb += c.Area
		}
		pins += c.MaxInputs + 1
	}
	a.CombArea = 1.30*comb + 0.35*float64(pins)
	seq := float64(nFF) * lib.Cell("DFF").Area
	a.Area = a.CombArea + seq + 0.10*(a.CombArea+seq)
	a.Configs = []*Config{byName["ND2"], byName["ND3"], byName["MX"], byName["NDMX"],
		byName["XOAMX"], byName["XOANDMX"], byName["LUT"], byName["FA"], byName["FF"]}
	return a
}

func indexConfigs(cfgs []*Config) map[string]*Config {
	m := map[string]*Config{}
	for _, c := range cfgs {
		m[c.Name] = c
	}
	return m
}

// coverTable returns the arch's cover table, building it on first use.
func (a *PLBArch) coverTable() *[1 << NumRoles]int {
	a.coverOnce.Do(func() {
		for _, s := range a.Slots {
			var serves uint
			for _, r := range s.Serves {
				serves |= 1 << r.Index()
			}
			for set := range a.cover {
				if uint(set)&serves != 0 {
					a.cover[set]++
				}
			}
		}
	})
	return &a.cover
}

// Fits reports whether n PLBs can host demand d, each role instance on
// its own slot serving that role. It is Hall's condition: d fits iff
// every role subset S satisfies d(S) ≤ n·cover[S], where d(S) is the
// demand of the roles in S. That is the max-flow test of the roles →
// slots network (the min cut is the worst such S), and with n = 1 it
// is exact distinct-slot matching. Only subsets of the demanded roles
// need checking, in increasing mask order so d(S) = d(S minus its
// lowest role) + that role's count reuses an earlier sum.
func (a *PLBArch) Fits(d *Demand, n int) bool {
	cover := a.coverTable()
	support := d.support()
	var sum [1 << NumRoles]int
	for s := support & -support; s != 0; s = (s - support) & support {
		sum[s] = sum[s&(s-1)] + d[bits.TrailingZeros(s)]
		if sum[s] > n*cover[s] {
			return false
		}
	}
	return true
}

// MinPLBs returns the fewest PLBs that can host demand d (at least 1):
// the largest ⌈d(S)/cover[S]⌉ over role subsets S, by the rule of Fits.
// It fails when a demanded role has no slot serving it, since then no
// number of PLBs suffices.
func (a *PLBArch) MinPLBs(d *Demand) (int, error) {
	cover := a.coverTable()
	support := d.support()
	for i := range d {
		if support&(1<<i) != 0 && cover[1<<i] == 0 {
			return 0, fmt.Errorf("PLB arch %q has no slot for role %q", a.Name, roleOrder[i])
		}
	}
	need := 1
	var sum [1 << NumRoles]int
	for s := support & -support; s != 0; s = (s - support) & support {
		sum[s] = sum[s&(s-1)] + d[bits.TrailingZeros(s)]
		need = max(need, (sum[s]+cover[s]-1)/cover[s])
	}
	return need, nil
}

// support is the mask of roles with positive demand.
func (d *Demand) support() uint {
	var m uint
	for i, k := range d {
		if k > 0 {
			m |= 1 << i
		}
	}
	return m
}

// usableConfigs returns the architecture's configs whose role demands
// the slot set can satisfy in isolation.
func (a *PLBArch) usableConfigs() []*Config {
	var out []*Config
	for _, c := range a.Configs {
		if a.CanPack([]*Config{c}) {
			out = append(out, c)
		}
	}
	return out
}

// BestConfig returns the preferred configuration implementing fn:
// the one minimizing (Intrinsic, Area) among configurations the
// architecture can actually host. It returns nil if no configuration
// implements fn.
func (a *PLBArch) BestConfig(fn logic.TT) *Config {
	var best *Config
	for _, c := range a.usableConfigs() {
		if c.Name == "FF" || c.Outputs > 1 || !c.Implements(fn) {
			continue
		}
		if best == nil || c.Intrinsic < best.Intrinsic ||
			(c.Intrinsic == best.Intrinsic && c.Area < best.Area) {
			best = c
		}
	}
	return best
}

// ConfigsFor returns every hostable configuration implementing fn, in
// preference order (fastest first, then smallest).
func (a *PLBArch) ConfigsFor(fn logic.TT) []*Config {
	var out []*Config
	for _, c := range a.usableConfigs() {
		if c.Name != "FF" && c.Outputs == 1 && c.Implements(fn) {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Intrinsic != out[j].Intrinsic {
			return out[i].Intrinsic < out[j].Intrinsic
		}
		return out[i].Area < out[j].Area
	})
	return out
}

// CanPack reports whether one PLB can host all the given configuration
// instances simultaneously, every required role on a distinct slot
// that serves it: Fits with n = 1 on the instances' summed demand.
func (a *PLBArch) CanPack(instances []*Config) bool {
	var d Demand
	for _, c := range instances {
		d.Add(c, 1)
	}
	return a.Fits(&d, 1)
}

// SlotSummary renders the slot composition, e.g.
// "2×MUX2 + 1×XOA + 1×ND3WI + 1×DFF".
func (a *PLBArch) SlotSummary() string {
	counts := map[string]int{}
	var order []string
	for _, s := range a.Slots {
		if counts[s.Component] == 0 {
			order = append(order, s.Component)
		}
		counts[s.Component]++
	}
	out := ""
	for i, comp := range order {
		if i > 0 {
			out += " + "
		}
		out += fmt.Sprintf("%d×%s", counts[comp], comp)
	}
	return out
}
