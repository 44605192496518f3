// Package sta implements graph-based static timing analysis over a
// netlist of configuration instances, with optional post-layout wire
// parasitics from the router (the paper measures "final performance
// ... by running static timing analysis ... with data from post-layout
// extraction", Sec. 3.1). It reports the Table 2 metric: the average
// slack over the top-10 critical paths.
package sta

import (
	"fmt"
	"sort"

	"vpga/internal/cells"
	"vpga/internal/netlist"
	"vpga/internal/place"
	"vpga/internal/route"
)

// SetupPS is the flip-flop setup time (ps).
const SetupPS = 50

// unconstrained is the required-time sentinel seeding the backward
// pass: a node still holding it after propagation has no timing
// constraint in its fanout cone. Comparisons use unconstrained/10 as
// the threshold so accumulated subtractions along a path cannot slip a
// genuinely unconstrained node under an exact equality check.
const unconstrained = 1e18

// topK is the number of worst endpoint slacks reported, matching the
// paper's "Path Slack 1-10".
const topK = 10

// Options configures the analysis.
type Options struct {
	// ClockPeriod is the timing target in ps.
	ClockPeriod float64
}

// PathElem is one stage of a reported critical path.
type PathElem struct {
	Node    netlist.NodeID
	Type    string
	Arrival float64
}

// Report is the analysis outcome.
type Report struct {
	// WorstSlack is min over all endpoints (ps).
	WorstSlack float64
	// TopSlacks lists the topK (10) worst endpoint slacks, worst first.
	TopSlacks []float64
	// AvgTopSlack averages TopSlacks — the Table 2 comparison metric.
	AvgTopSlack float64
	// MaxArrival is the longest path delay (ps).
	MaxArrival float64
	// CriticalPath walks the worst path, startpoint first.
	CriticalPath []PathElem
	// Arrival and Slack are per-node values (indexed by NodeID).
	Arrival []float64
	Slack   []float64
}

// timingParams resolves delay parameters for a node type.
type timingParams struct {
	intrinsic, drive, inputCap float64
}

func params(arch *cells.PLBArch, typ string) (timingParams, bool) {
	if cfg := arch.Config(typ); cfg != nil {
		return timingParams{cfg.Intrinsic, cfg.Drive, cfg.InputCap}, true
	}
	if c := arch.Library().Cell(typ); c != nil {
		return timingParams{c.Intrinsic, c.Drive, c.InputCap}, true
	}
	return timingParams{}, false
}

// Analyze runs STA. prob and routes may be nil for pre-layout timing
// (zero wire parasitics); when given, prob is nl's placement problem
// and wire RC is taken from the routed trees.
func Analyze(nl *netlist.Netlist, arch *cells.PLBArch, prob *place.Problem, routes *route.Result, opts Options) (*Report, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}

	// Map driver node -> net index (-1: drives no routed net). Every
	// node of a driver object maps to that object's last net.
	var netOf []int32
	if prob != nil && routes != nil {
		netOf = make([]int32, nl.NumNodes())
		for i := range netOf {
			netOf[i] = -1
		}
		for ni := range prob.Nets {
			driver := prob.Nets[ni].Objs[0]
			for _, nodeID := range prob.Objs[driver].Nodes {
				netOf[nodeID] = int32(ni)
			}
		}
	}

	// wireDelayCap returns the wire delay from driver node f to sink
	// node g and the driver's total wire capacitance.
	wireDelayCap := func(f, g netlist.NodeID) (float64, float64) {
		if netOf == nil || netOf[f] < 0 {
			return 0, 0
		}
		ni := int(netOf[f])
		sinkObj := prob.ObjIndex(g)
		if sinkObj < 0 {
			return 0, routes.NetCap(ni)
		}
		// A sink's position among the net's sinks. Build lists each
		// object once per net, so the first match is the only one.
		for k, oi := range prob.Nets[ni].Objs[1:] {
			if oi == sinkObj {
				return routes.WireRC(ni, k)
			}
		}
		// Same placement object (e.g. inside an FA macro): no wire.
		return 0, routes.NetCap(ni)
	}

	// Load capacitance per driver: sink pin caps + wire cap.
	loadOf := func(id netlist.NodeID) float64 {
		total := 0.0
		for _, out := range nl.Fanouts(id) {
			n := nl.Node(out)
			switch n.Kind {
			case netlist.KindGate, netlist.KindDFF:
				if p, ok := params(arch, n.Type); ok {
					total += p.inputCap
				} else {
					total += 2
				}
			case netlist.KindOutput:
				total += 4 // pad load
			}
		}
		if netOf != nil && netOf[id] >= 0 {
			total += routes.NetCap(int(netOf[id]))
		}
		return total
	}

	arrival := make([]float64, nl.NumNodes())
	worstFanin := make([]netlist.NodeID, nl.NumNodes())
	for i := range worstFanin {
		worstFanin[i] = netlist.Nil
	}
	for _, id := range order {
		n := nl.Node(id)
		switch n.Kind {
		case netlist.KindInput, netlist.KindConst:
			arrival[id] = 0
		case netlist.KindDFF:
			// Launch: clk→q plus load-dependent drive.
			p, _ := params(arch, "FF")
			if p.intrinsic == 0 {
				p = timingParams{80, 2.5, 2.0}
			}
			arrival[id] = p.intrinsic + p.drive*loadOf(id)
		case netlist.KindGate:
			p, ok := params(arch, n.Type)
			if !ok {
				return nil, fmt.Errorf("sta: no timing for type %q", n.Type)
			}
			worst := 0.0
			for _, f := range n.Fanins {
				wd, _ := wireDelayCap(f, id)
				if a := arrival[f] + wd; a > worst {
					worst = a
					worstFanin[id] = f
				}
			}
			arrival[id] = worst + p.intrinsic + p.drive*loadOf(id)
		case netlist.KindOutput:
			wd, _ := wireDelayCap(n.Fanins[0], id)
			arrival[id] = arrival[n.Fanins[0]] + wd
			worstFanin[id] = n.Fanins[0]
		}
	}

	// Endpoints: PO pads and DFF D pins. An endpoint whose data cone
	// contains no timed element — a pad fed straight from a primary
	// input or constant, a register latching one, or a fanin-less node —
	// carries no meaningful constraint: its "slack" is just the clock
	// period, and letting it into the top-K pool dilutes AvgTopSlack
	// with astronomically optimistic figures.
	type endpoint struct {
		id           netlist.NodeID
		arrival      float64
		slack        float64
		noConstraint bool
	}
	passthrough := func(n *netlist.Node) bool {
		if len(n.Fanins) == 0 {
			return true
		}
		src := nl.Node(n.Fanins[0])
		return src.Kind == netlist.KindInput || src.Kind == netlist.KindConst
	}
	var eps []endpoint
	maxArr := 0.0
	for _, n := range nl.Nodes() {
		switch n.Kind {
		case netlist.KindOutput:
			if len(n.Fanins) == 0 {
				eps = append(eps, endpoint{id: n.ID, slack: opts.ClockPeriod, noConstraint: true})
				continue
			}
			a := arrival[n.ID]
			eps = append(eps, endpoint{n.ID, a, opts.ClockPeriod - a, passthrough(n)})
			if a > maxArr {
				maxArr = a
			}
		case netlist.KindDFF:
			if len(n.Fanins) == 0 {
				eps = append(eps, endpoint{id: n.ID, slack: opts.ClockPeriod - SetupPS, noConstraint: true})
				continue
			}
			f := n.Fanins[0]
			wd, _ := wireDelayCap(f, n.ID)
			a := arrival[f] + wd
			eps = append(eps, endpoint{n.ID, a, opts.ClockPeriod - SetupPS - a, passthrough(n)})
			if a > maxArr {
				maxArr = a
			}
		}
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("sta: netlist %s has no timing endpoints", nl.Name)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].slack < eps[j].slack })

	// Top-K selection over constrained endpoints only; a netlist with
	// nothing but passthrough endpoints falls back to the full set so
	// the report still carries a slack figure.
	sel := eps[:0:0]
	for _, ep := range eps {
		if !ep.noConstraint {
			sel = append(sel, ep)
		}
	}
	if len(sel) == 0 {
		sel = eps
	}

	rep := &Report{MaxArrival: maxArr, Arrival: arrival}
	k := topK
	if k > len(sel) {
		k = len(sel)
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		rep.TopSlacks = append(rep.TopSlacks, sel[i].slack)
		sum += sel[i].slack
	}
	rep.WorstSlack = sel[0].slack
	rep.AvgTopSlack = sum / float64(k)

	// Per-node slack by backward propagation of required times, seeded
	// with the named sentinel (not a bare magic number) so nodes whose
	// fanout cone reaches no endpoint are recognizable below.
	required := make([]float64, nl.NumNodes())
	for i := range required {
		required[i] = unconstrained
	}
	for _, ep := range eps {
		n := nl.Node(ep.id)
		req := opts.ClockPeriod
		if n.Kind == netlist.KindDFF {
			req -= SetupPS
		}
		// The endpoint constraint applies to the data it samples.
		if n.Kind == netlist.KindOutput || n.Kind == netlist.KindDFF {
			if req < required[ep.id] {
				required[ep.id] = req
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		n := nl.Node(id)
		switch n.Kind {
		case netlist.KindOutput, netlist.KindDFF:
			if len(n.Fanins) == 0 {
				continue
			}
			for _, f := range n.Fanins {
				wd, _ := wireDelayCap(f, id)
				if r := required[id] - wd; r < required[f] {
					required[f] = r
				}
			}
		case netlist.KindGate:
			p, _ := params(arch, n.Type)
			stage := p.intrinsic + p.drive*loadOf(id)
			for _, f := range n.Fanins {
				wd, _ := wireDelayCap(f, id)
				if r := required[id] - stage - wd; r < required[f] {
					required[f] = r
				}
			}
		}
	}
	rep.Slack = make([]float64, nl.NumNodes())
	for _, n := range nl.Nodes() {
		if required[n.ID] >= unconstrained/10 {
			rep.Slack[n.ID] = opts.ClockPeriod
			continue
		}
		rep.Slack[n.ID] = required[n.ID] - arrival[n.ID]
	}

	// Critical path walk from the worst constrained endpoint.
	cur := sel[0].id
	var path []PathElem
	for cur != netlist.Nil {
		n := nl.Node(cur)
		path = append(path, PathElem{Node: cur, Type: n.Type, Arrival: arrival[cur]})
		if n.Kind == netlist.KindDFF && len(path) > 1 {
			break // crossed into the launching register
		}
		next := worstFanin[cur]
		if next == netlist.Nil && n.Kind == netlist.KindDFF && len(n.Fanins) > 0 {
			next = n.Fanins[0]
		}
		cur = next
	}
	// Reverse: startpoint first.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	rep.CriticalPath = path
	return rep, nil
}

// NetWeights derives placement net weights from per-node slacks:
// critical nets (slack near or below zero) get weight up to maxW.
func NetWeights(nl *netlist.Netlist, prob *place.Problem, rep *Report, clock float64, maxW float64) []float64 {
	w := make([]float64, len(prob.Nets))
	for ni := range prob.Nets {
		driverObj := prob.Nets[ni].Objs[0]
		worst := clock
		for _, nodeID := range prob.Objs[driverObj].Nodes {
			if s := rep.Slack[nodeID]; s < worst {
				worst = s
			}
		}
		crit := 1 - worst/clock
		if crit < 0 {
			crit = 0
		}
		if crit > 1 {
			crit = 1
		}
		w[ni] = 1 + (maxW-1)*crit
	}
	return w
}

// ObjCriticality derives per-object criticality for the packer.
func ObjCriticality(nl *netlist.Netlist, prob *place.Problem, rep *Report, clock float64) []float64 {
	out := make([]float64, len(prob.Objs))
	for i := range prob.Objs {
		worst := clock
		for _, nodeID := range prob.Objs[i].Nodes {
			if s := rep.Slack[nodeID]; s < worst {
				worst = s
			}
		}
		crit := 1 - worst/clock
		if crit < 0 {
			crit = 0
		}
		out[i] = crit
	}
	return out
}
