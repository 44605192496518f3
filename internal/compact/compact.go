// Package compact implements the paper's regularity-driven logic
// compaction (Sec. 3.1): after technology mapping, it "finds clusters
// of logic or supernodes corresponding to functions with 3 or less
// inputs ... using a maxflow-mincut algorithm similar to Flowmap [5].
// It then matches these computed supernodes to the appropriate
// combination of PLB components", reducing total gate area and turning
// the netlist into configuration instances (MX, ND3, NDMX, XOAMX,
// XOANDMX, LUT) that the packer understands. For the granular PLB it
// additionally extracts full-adder pairs (Sec. 2.2) into single-PLB
// FA macros.
package compact

import (
	"fmt"
	"sort"

	"vpga/internal/cells"
	"vpga/internal/flowmap"
	"vpga/internal/logic"
	"vpga/internal/netlist"
)

// Result is the outcome of one compaction run.
type Result struct {
	// Netlist holds configuration instances: every gate's Type is a
	// configuration name of the architecture (plus INV/BUF absorbed
	// into the PLB's programmable polarity buffers).
	Netlist *netlist.Netlist
	// AreaBefore and AreaAfter are summed component/configuration areas
	// (NAND2 equivalents); the paper reports ~15% average reduction.
	AreaBefore, AreaAfter float64
	// ConfigCounts tallies instances by configuration name.
	ConfigCounts map[string]int
	// FullAdders is the number of FA macro pairs extracted.
	FullAdders int
	// AbsorbedInverters counts INV cells folded into consumer
	// configurations.
	AbsorbedInverters int
}

// Reduction returns the fractional gate-area reduction achieved.
func (r *Result) Reduction() float64 {
	if r.AreaBefore == 0 {
		return 0
	}
	return 1 - r.AreaAfter/r.AreaBefore
}

// maxConeNodes bounds per-root cone exploration in the maxflow cut
// search.
const maxConeNodes = 48

// Run compacts a mapped component netlist for the given architecture.
// The input netlist is not modified.
func Run(mapped *netlist.Netlist, arch *cells.PLBArch) (*Result, error) {
	nl := mapped.Clone()
	lib := arch.Library()

	areaBefore := sumCellArea(nl, lib)

	absorbed := absorbInverters(nl, arch)
	nl.Sweep()
	nl.Compact()

	clusters, err := clusterize(nl, arch)
	if err != nil {
		return nil, err
	}
	out, counts, fas, err := rebuild(nl, arch, clusters)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Netlist:           out,
		AreaBefore:        areaBefore,
		AreaAfter:         sumConfigArea(out, arch),
		ConfigCounts:      counts,
		FullAdders:        fas,
		AbsorbedInverters: absorbed,
	}
	return res, nil
}

func sumCellArea(nl *netlist.Netlist, lib *cells.Library) float64 {
	total := 0.0
	for _, n := range nl.Nodes() {
		switch n.Kind {
		case netlist.KindGate, netlist.KindDFF:
			if c := lib.Cell(n.Type); c != nil {
				total += c.Area
			}
		}
	}
	return total
}

func sumConfigArea(nl *netlist.Netlist, arch *cells.PLBArch) float64 {
	lib := arch.Library()
	total := 0.0
	seenGroup := map[int32]bool{}
	for _, n := range nl.Nodes() {
		switch n.Kind {
		case netlist.KindDFF:
			total += lib.Cell("DFF").Area
		case netlist.KindGate:
			if n.Group != 0 {
				if seenGroup[n.Group] {
					continue // count each macro once
				}
				seenGroup[n.Group] = true
			}
			if cfg := arch.Config(n.Type); cfg != nil {
				total += cfg.Area
			} else if c := lib.Cell(n.Type); c != nil {
				total += c.Area
			}
		}
	}
	return total
}

// absorbInverters folds INV cells into their gate consumers by flipping
// the corresponding input of the consumer's function; the PLB provides
// all inputs in both polarities, so the inversion is free. Inverters
// feeding primary outputs or flip-flops are kept.
func absorbInverters(nl *netlist.Netlist, arch *cells.PLBArch) int {
	order, err := nl.TopoOrder()
	if err != nil {
		return 0
	}
	absorbed := 0
	for _, id := range order {
		n := nl.Node(id)
		if n.Kind != netlist.KindGate || n.Type != "INV" {
			continue
		}
		src := n.Fanins[0]
		if nl.Node(src).Kind == netlist.KindOutput {
			continue
		}
		rewired := false
		for _, outID := range append([]netlist.NodeID(nil), nl.Fanouts(id)...) {
			out := nl.Node(outID)
			if out.Kind != netlist.KindGate || out.Type == "INV" {
				continue
			}
			// Flip every input slot reading the inverter.
			fn := out.Func
			for i, f := range out.Fanins {
				if f == id {
					fn = fn.NegateInput(i)
				}
			}
			if len(arch.ConfigsFor(fn)) == 0 {
				continue
			}
			out.Func = fn
			for i, f := range out.Fanins {
				if f == id {
					nl.SetFanin(outID, i, src)
				}
			}
			rewired = true
		}
		if rewired {
			absorbed++
		}
	}
	return absorbed
}

// cluster is one supernode: a root gate plus absorbed members,
// implemented by a configuration over the leaf nodes.
type cluster struct {
	root   netlist.NodeID
	leaves []netlist.NodeID
	fn     logic.TT
	cfg    *cells.Config
	group  int32 // nonzero for FA pairs
}

// clusterize forms supernodes over the gate netlist using the
// maxflow-mincut K-feasible cut search, duplication-free: multi-fanout
// gates are cluster boundaries.
func clusterize(nl *netlist.Netlist, arch *cells.PLBArch) (map[netlist.NodeID]*cluster, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	lib := arch.Library()
	claimed := map[netlist.NodeID]bool{}
	clusters := map[netlist.NodeID]*cluster{}

	isGate := func(id netlist.NodeID) bool {
		k := nl.Node(id).Kind
		return k == netlist.KindGate && nl.Node(id).Type != "INV" && nl.Node(id).Type != "BUF"
	}

	// Full-adder macros first: their sum/carry cones share the
	// propagate node internally (Sec. 2.2), which duplication-free
	// clustering would split at the multi-fanout boundary.
	extractFullAdders(nl, arch, order, isGate, claimed, clusters)

	// The cut search expands gates only: every other node reads
	// nothing here. One flat array backs every gate's fanin list.
	total := 0
	for _, n := range nl.Nodes() {
		total += len(n.Fanins)
	}
	fanins := make([][]int, nl.NumNodes())
	flat := make([]int, 0, total)
	for _, n := range nl.Nodes() {
		if !isGate(n.ID) {
			continue
		}
		start := len(flat)
		for _, f := range n.Fanins {
			flat = append(flat, int(f))
		}
		fanins[n.ID] = flat[start:len(flat):len(flat)]
	}
	finder := flowmap.NewCutFinder(fanins)
	isLeaf := func(n int) bool {
		nid := netlist.NodeID(n)
		return !isGate(nid) || claimed[nid] || len(nl.Fanouts(nid)) > 1
	}

	// Reverse topological order: roots near the outputs claim first.
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		if !isGate(id) || claimed[id] {
			continue
		}
		var cl *cluster
		if res, ok := finder.Find(int(id), 3, maxConeNodes, isLeaf); ok {
			fn := clusterFunc(nl, id, res)
			if cfg := bestAreaConfig(arch, fn); cfg != nil {
				memberArea := 0.0
				for _, m := range res.Cluster {
					if c := lib.Cell(nl.Node(netlist.NodeID(m)).Type); c != nil {
						memberArea += c.Area
					}
				}
				if cfg.Area <= memberArea+1e-9 {
					leaves := make([]netlist.NodeID, len(res.Leaves))
					for j, l := range res.Leaves {
						leaves[j] = netlist.NodeID(l)
					}
					cl = &cluster{root: id, leaves: leaves, fn: fn, cfg: cfg}
					for _, m := range res.Cluster {
						claimed[netlist.NodeID(m)] = true
					}
				}
			}
		}
		if cl == nil {
			// Fall back to an identity cluster around the root alone.
			n := nl.Node(id)
			fn := n.Func
			cfg := bestAreaConfig(arch, fn)
			if cfg == nil {
				return nil, fmt.Errorf("compact: no configuration for %s %v", n.Type, fn)
			}
			cl = &cluster{root: id, leaves: append([]netlist.NodeID(nil), n.Fanins...), fn: fn, cfg: cfg}
			claimed[id] = true
		}
		clusters[id] = cl
	}
	return clusters, nil
}

// bestAreaConfig picks the minimum-area configuration implementing fn
// (ties: faster first since ConfigsFor is delay-sorted).
func bestAreaConfig(arch *cells.PLBArch, fn logic.TT) *cells.Config {
	var best *cells.Config
	for _, cfg := range arch.ConfigsFor(fn) {
		if best == nil || cfg.Area < best.Area {
			best = cfg
		}
	}
	return best
}

// clusterFunc computes the root's function in terms of the cut leaves
// (ordered as in res.Leaves).
func clusterFunc(nl *netlist.Netlist, root netlist.NodeID, res flowmap.CutResult) logic.TT {
	k := len(res.Leaves)
	memo := map[netlist.NodeID]logic.TT{}
	for i, l := range res.Leaves {
		memo[netlist.NodeID(l)] = logic.VarTT(k, i)
	}
	var eval func(id netlist.NodeID) logic.TT
	eval = func(id netlist.NodeID) logic.TT {
		if t, ok := memo[id]; ok {
			return t
		}
		n := nl.Node(id)
		switch n.Kind {
		case netlist.KindConst:
			return logic.ConstTT(k, n.ConstVal)
		case netlist.KindGate:
			args := make([]logic.TT, len(n.Fanins))
			for i, f := range n.Fanins {
				args[i] = eval(f)
			}
			t := composeTT(n.Func, args, k)
			memo[id] = t
			return t
		default:
			panic(fmt.Sprintf("compact: cluster member %d of kind %v", id, n.Kind))
		}
	}
	return eval(root)
}

// composeTT evaluates fn(args...) where each arg is a k-input table.
func composeTT(fn logic.TT, args []logic.TT, k int) logic.TT {
	out := logic.ConstTT(k, false)
	for row := uint(0); row < 1<<uint(k); row++ {
		var assign uint
		for i, a := range args {
			if a.Eval(row) {
				assign |= 1 << uint(i)
			}
		}
		if fn.Eval(assign) {
			out = out.Or(rowTT(k, row))
		}
	}
	return out
}

func rowTT(k int, row uint) logic.TT {
	return logic.NewTT(k, uint64(1)<<row)
}

// faCandidate is a potential FA half: a root whose 3-leaf cone computes
// an XOR3- or MAJ3-class function, allowing interior multi-fanout
// nodes (the shared propagate signal).
type faCandidate struct {
	root    netlist.NodeID
	leaves  []netlist.NodeID
	fn      logic.TT
	members []netlist.NodeID
}

// extractFullAdders pairs XOR3-class and MAJ3-class 3-leaf cones over
// the same leaves into FA macros (granular PLB only). The pair is
// legal when every interior node's fanouts stay inside the union of
// the two cones — exactly the Section 2.2 sharing of the propagate
// MUX between the sum and carry functions.
func extractFullAdders(nl *netlist.Netlist, arch *cells.PLBArch,
	order []netlist.NodeID, isGate func(netlist.NodeID) bool,
	claimed map[netlist.NodeID]bool, clusters map[netlist.NodeID]*cluster) {
	fa := arch.Config("FA")
	if fa == nil || !arch.CanPack([]*cells.Config{fa}) {
		return
	}
	xorSet := map[uint64]bool{logic.TTXor3.Bits: true, logic.TTXnor3.Bits: true}
	majSet := map[uint64]bool{}
	for _, t := range logic.NPNClass(logic.TTMaj3) {
		majSet[t.Bits] = true
	}
	type key struct{ a, b, c netlist.NodeID }
	mkKey := func(leaves []netlist.NodeID) key {
		s := append([]netlist.NodeID(nil), leaves...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return key{s[0], s[1], s[2]}
	}
	xors := map[key]*faCandidate{}
	majs := map[key]*faCandidate{}
	// Local cut enumeration per root: shared interior nodes (the
	// propagate MUX) may have external fanout here; pairing legality is
	// verified afterwards by the containment check.
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		if !isGate(id) || claimed[id] {
			continue
		}
		for _, leaves := range enumerateLocalCuts(nl, id, isGate, claimed) {
			if len(leaves) != 3 {
				continue
			}
			res := flowmap.CutResult{}
			for _, l := range leaves {
				res.Leaves = append(res.Leaves, int(l))
			}
			fn := clusterFunc(nl, id, res)
			if !xorSet[fn.Bits] && !majSet[fn.Bits] {
				continue
			}
			cand := &faCandidate{root: id, fn: fn, leaves: leaves}
			cand.members = coneMembers(nl, id, leaves)
			if xorSet[fn.Bits] {
				xors[mkKey(cand.leaves)] = cand
			} else {
				majs[mkKey(cand.leaves)] = cand
			}
			break // one class hit per root is enough
		}
	}
	// Pair in sorted leaf order, not map order: the order numbers the FA
	// groups and decides which of two overlapping candidates is claimed.
	keys := make([]key, 0, len(xors))
	for k := range xors {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.a != b.a {
			return a.a < b.a
		}
		if a.b != b.b {
			return a.b < b.b
		}
		return a.c < b.c
	})
	var group int32 = 1
	for _, k := range keys {
		x := xors[k]
		m, ok := majs[k]
		if !ok || x.root == m.root {
			continue
		}
		union := map[netlist.NodeID]bool{}
		for _, id := range x.members {
			union[id] = true
		}
		for _, id := range m.members {
			union[id] = true
		}
		// Interior fanouts must stay inside the macro.
		contained := true
		anyClaimed := false
		for id := range union {
			if claimed[id] {
				anyClaimed = true
				break
			}
			if id == x.root || id == m.root {
				continue
			}
			for _, out := range nl.Fanouts(id) {
				if !union[out] {
					contained = false
					break
				}
			}
			if !contained {
				break
			}
		}
		if !contained || anyClaimed {
			continue
		}
		for id := range union {
			claimed[id] = true
		}
		clusters[x.root] = &cluster{root: x.root, leaves: x.leaves, fn: x.fn, cfg: fa, group: group}
		clusters[m.root] = &cluster{root: m.root, leaves: m.leaves, fn: m.fn, cfg: fa, group: group}
		group++
	}
}

// enumerateLocalCuts enumerates the ≤3-leaf cuts of root reachable
// within a small depth bound, by merging fanin cut sets bottom-up.
// Claimed and non-gate nodes terminate expansion.
func enumerateLocalCuts(nl *netlist.Netlist, root netlist.NodeID,
	isGate func(netlist.NodeID) bool, claimed map[netlist.NodeID]bool) [][]netlist.NodeID {
	const maxDepth = 3
	const maxCuts = 24
	var cutsOf func(id netlist.NodeID, depth int) [][]netlist.NodeID
	cutsOf = func(id netlist.NodeID, depth int) [][]netlist.NodeID {
		self := [][]netlist.NodeID{{id}}
		if id != root && (!isGate(id) || claimed[id]) {
			return self
		}
		if depth == 0 {
			return self
		}
		lists := [][][]netlist.NodeID{}
		for _, f := range nl.Node(id).Fanins {
			lists = append(lists, cutsOf(f, depth-1))
		}
		merged := [][]netlist.NodeID{nil}
		for _, l := range lists {
			var next [][]netlist.NodeID
			for _, acc := range merged {
				for _, c := range l {
					u := unionLeaves(acc, c)
					if u != nil {
						next = append(next, u)
					}
				}
			}
			merged = next
			if len(merged) > 4*maxCuts {
				merged = merged[:4*maxCuts]
			}
		}
		out := dedupCuts(merged)
		if id != root {
			out = append(out, []netlist.NodeID{id})
		}
		if len(out) > maxCuts {
			out = out[:maxCuts]
		}
		return out
	}
	return cutsOf(root, maxDepth)
}

// unionLeaves merges two sorted leaf sets, returning nil when the
// union exceeds three leaves.
func unionLeaves(a, b []netlist.NodeID) []netlist.NodeID {
	out := make([]netlist.NodeID, 0, 3)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if len(out) == 3 {
			return nil
		}
		switch {
		case i == len(a):
			out = append(out, b[j])
			j++
		case j == len(b):
			out = append(out, a[i])
			i++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func dedupCuts(cuts [][]netlist.NodeID) [][]netlist.NodeID {
	seen := map[string]bool{}
	var out [][]netlist.NodeID
	for _, c := range cuts {
		if c == nil {
			continue
		}
		k := fmt.Sprint(c)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	return out
}

// coneMembers returns the nodes strictly between root and the leaves,
// including root.
func coneMembers(nl *netlist.Netlist, root netlist.NodeID, leaves []netlist.NodeID) []netlist.NodeID {
	stop := map[netlist.NodeID]bool{}
	for _, l := range leaves {
		stop[l] = true
	}
	seen := map[netlist.NodeID]bool{root: true}
	var members []netlist.NodeID
	stack := []netlist.NodeID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		members = append(members, id)
		for _, f := range nl.Node(id).Fanins {
			if stop[f] || seen[f] {
				continue
			}
			seen[f] = true
			stack = append(stack, f)
		}
	}
	return members
}

// rebuild materializes the cluster cover as a fresh netlist of
// configuration instances.
func rebuild(nl *netlist.Netlist, arch *cells.PLBArch, clusters map[netlist.NodeID]*cluster) (*netlist.Netlist, map[string]int, int, error) {
	out := netlist.New(nl.Name)
	counts := map[string]int{}
	faGroups := map[int32]bool{}

	newID := map[netlist.NodeID]netlist.NodeID{}
	// Pass 1: interface and flip-flops.
	for _, n := range nl.Nodes() {
		switch n.Kind {
		case netlist.KindInput:
			newID[n.ID] = out.AddInput(n.Name)
		case netlist.KindConst:
			newID[n.ID] = out.AddConst(n.ConstVal)
		case netlist.KindDFF:
			d := out.AddDFF(n.Name, 0)
			out.SetFanin(d, 0, d)
			newID[n.ID] = d
		}
	}
	// Pass 2: configuration instances in dependency order.
	var build func(id netlist.NodeID) (netlist.NodeID, error)
	build = func(id netlist.NodeID) (netlist.NodeID, error) {
		if v, ok := newID[id]; ok {
			return v, nil
		}
		n := nl.Node(id)
		if n.Kind == netlist.KindGate && (n.Type == "INV" || n.Type == "BUF") {
			srcs := make([]netlist.NodeID, len(n.Fanins))
			for i, f := range n.Fanins {
				src, err := build(f)
				if err != nil {
					return netlist.Nil, err
				}
				srcs[i] = src
			}
			v := out.AddGate(n.Type, n.Func, srcs...)
			counts[n.Type]++
			newID[id] = v
			return v, nil
		}
		cl, ok := clusters[id]
		if !ok {
			return netlist.Nil, fmt.Errorf("compact: node %d (%s) has no cluster", id, n.Type)
		}
		fanins := make([]netlist.NodeID, len(cl.leaves))
		for i, l := range cl.leaves {
			v, err := build(l)
			if err != nil {
				return netlist.Nil, err
			}
			fanins[i] = v
		}
		v := out.AddGate(cl.cfg.Name, cl.fn, fanins...)
		out.Node(v).Group = cl.group
		if cl.group != 0 {
			if !faGroups[cl.group] {
				faGroups[cl.group] = true
				counts["FA"]++
			}
		} else {
			counts[cl.cfg.Name]++
		}
		newID[id] = v
		return v, nil
	}
	for _, po := range nl.POs() {
		src, err := build(nl.Node(po).Fanins[0])
		if err != nil {
			return nil, nil, 0, err
		}
		out.AddOutput(nl.Node(po).Name, src)
	}
	for _, n := range nl.Nodes() {
		if n.Kind != netlist.KindDFF {
			continue
		}
		src, err := build(n.Fanins[0])
		if err != nil {
			return nil, nil, 0, err
		}
		out.SetFanin(newID[n.ID], 0, src)
	}
	out.Sweep()
	out.Compact()
	if err := out.Validate(); err != nil {
		return nil, nil, 0, fmt.Errorf("compact: rebuilt netlist invalid: %w", err)
	}
	return out, counts, len(faGroups), nil
}
