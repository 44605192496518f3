// Package power estimates switching power for an implemented design,
// covering the third axis of the paper's cell-level comparison (the
// VPGA LUT "is substantially inferior to an equivalent standard cell
// in terms of delay, power and area", Sec. 2 citing [10]).
//
// The model is the standard architectural estimate: static signal
// probabilities are propagated through the configuration truth tables
// under an input-independence assumption (sequential feedback is
// iterated to a fixed point), switching activity is derived as
// α = 2·p·(1−p), and dynamic power sums ½·α·C·V²·f over every net,
// with per-cell internal energy and area-proportional leakage on top.
package power

import (
	"fmt"

	"vpga/internal/cells"
	"vpga/internal/netlist"
	"vpga/internal/place"
	"vpga/internal/route"
)

// Electrical constants of the synthetic process (consistent across
// architectures, like the rest of the characterization).
const (
	// VddV is the supply voltage.
	VddV = 1.2
	// InternalEnergyFJPerArea is the per-transition internal energy of
	// a cell, proportional to its area (fJ per NAND2-equivalent).
	InternalEnergyFJPerArea = 1.5
	// LeakageUWPerArea is static leakage per NAND2-equivalent of cell
	// area (µW).
	LeakageUWPerArea = 0.02
)

// Options configures the estimate.
type Options struct {
	// ClockPS is the clock period in ps (mandatory).
	ClockPS float64
	// InputProb is the assumed probability of 1 on primary inputs
	// (default 0.5).
	InputProb float64
}

// iterations bounds the sequential fixed-point loop.
const iterations = 16

// Report is the power estimate.
type Report struct {
	// DynamicUW is switching power (net + internal), µW.
	DynamicUW float64
	// NetUW is the wire+pin switching component alone.
	NetUW float64
	// InternalUW is the cell-internal component.
	InternalUW float64
	// LeakageUW is the static component.
	LeakageUW float64
	// TotalUW = DynamicUW + LeakageUW.
	TotalUW float64
	// ByType splits dynamic power per cell type.
	ByType map[string]float64
	// Activity holds the per-node switching activity (index NodeID).
	Activity []float64
	// Prob holds the per-node static 1-probability.
	Prob []float64
}

// Estimate computes the power report. prob/routes may be nil for a
// pre-layout estimate (no wire capacitance).
func Estimate(nl *netlist.Netlist, arch *cells.PLBArch, pr *place.Problem, routes *route.Result, opts Options) (*Report, error) {
	if opts.ClockPS <= 0 {
		return nil, fmt.Errorf("power: clock period required")
	}
	if opts.InputProb == 0 {
		opts.InputProb = 0.5
	}
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}

	prob := make([]float64, nl.NumNodes())
	// Initialize: PIs at InputProb, DFFs at 0.5 seed.
	for _, n := range nl.Nodes() {
		switch n.Kind {
		case netlist.KindInput:
			prob[n.ID] = opts.InputProb
		case netlist.KindDFF:
			prob[n.ID] = 0.5
		case netlist.KindConst:
			if n.ConstVal {
				prob[n.ID] = 1
			}
		}
	}
	// Fixed-point iteration over the sequential loop.
	for iter := 0; iter < iterations; iter++ {
		delta := 0.0
		for _, id := range order {
			n := nl.Node(id)
			switch n.Kind {
			case netlist.KindGate:
				prob[id] = gateProb(n, prob)
			case netlist.KindOutput:
				prob[id] = prob[n.Fanins[0]]
			}
		}
		for _, n := range nl.Nodes() {
			if n.Kind != netlist.KindDFF {
				continue
			}
			next := prob[n.Fanins[0]]
			if d := next - prob[n.ID]; d > delta {
				delta = d
			} else if -d > delta {
				delta = -d
			}
			prob[n.ID] = next
		}
		if delta < 1e-6 {
			break
		}
	}
	// Final combinational settle.
	for _, id := range order {
		n := nl.Node(id)
		switch n.Kind {
		case netlist.KindGate:
			prob[id] = gateProb(n, prob)
		case netlist.KindOutput:
			prob[id] = prob[n.Fanins[0]]
		}
	}

	activity := make([]float64, nl.NumNodes())
	for i, p := range prob {
		activity[i] = 2 * p * (1 - p)
	}

	// Net capacitances: sink pin caps plus routed wire capacitance.
	netCapOf := func(id netlist.NodeID) float64 {
		total := 0.0
		for _, out := range nl.Fanouts(id) {
			o := nl.Node(out)
			switch o.Kind {
			case netlist.KindGate, netlist.KindDFF:
				if p, ok := pinCap(arch, o.Type); ok {
					total += p
				} else {
					total += 2
				}
			case netlist.KindOutput:
				total += 4
			}
		}
		if pr != nil && routes != nil {
			if oi := pr.ObjIndex(id); oi >= 0 {
				// Add the routed wire capacitance of the net this node
				// drives.
				for _, ni := range pr.ObjNets(oi) {
					if pr.Nets[ni].Objs[0] == oi {
						total += routes.NetCap(int(ni))
					}
				}
			}
		}
		return total
	}

	freqGHz := 1000.0 / opts.ClockPS // 1/ps → GHz
	rep := &Report{ByType: map[string]float64{}, Activity: activity, Prob: prob}
	for _, n := range nl.Nodes() {
		var area float64
		switch n.Kind {
		case netlist.KindGate:
			area = typeArea(arch, n.Type)
		case netlist.KindDFF:
			area = typeArea(arch, "FF")
		default:
			continue
		}
		α := activity[n.ID]
		if n.Kind == netlist.KindDFF {
			// Clock pin toggles every cycle; internal activity is
			// dominated by the clock tree contribution.
			α = 1
		}
		// ½·α·C·V²·f with C in fF, V in volts, f in GHz → µW.
		cNet := netCapOf(n.ID)
		netUW := 0.5 * activity[n.ID] * cNet * VddV * VddV * freqGHz
		intUW := 0.5 * α * InternalEnergyFJPerArea * area * freqGHz
		rep.NetUW += netUW
		rep.InternalUW += intUW
		rep.ByType[n.Type] += netUW + intUW
		rep.LeakageUW += LeakageUWPerArea * area
	}
	rep.DynamicUW = rep.NetUW + rep.InternalUW
	rep.TotalUW = rep.DynamicUW + rep.LeakageUW
	return rep, nil
}

// gateProb computes P(out=1) from the truth table under pin
// independence.
func gateProb(n *netlist.Node, prob []float64) float64 {
	total := 0.0
	rows := 1 << uint(len(n.Fanins))
	for row := 0; row < rows; row++ {
		if !n.Func.Eval(uint(row)) {
			continue
		}
		p := 1.0
		for i, f := range n.Fanins {
			if row>>uint(i)&1 == 1 {
				p *= prob[f]
			} else {
				p *= 1 - prob[f]
			}
		}
		total += p
	}
	if total < 0 {
		return 0
	}
	if total > 1 {
		return 1
	}
	return total
}

func typeArea(arch *cells.PLBArch, typ string) float64 {
	if cfg := arch.Config(typ); cfg != nil {
		return cfg.Area
	}
	if c := arch.Library().Cell(typ); c != nil {
		return c.Area
	}
	return 1
}

func pinCap(arch *cells.PLBArch, typ string) (float64, bool) {
	if cfg := arch.Config(typ); cfg != nil {
		return cfg.InputCap, true
	}
	if c := arch.Library().Cell(typ); c != nil {
		return c.InputCap, true
	}
	return 0, false
}
