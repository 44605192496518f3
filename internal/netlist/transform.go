package netlist

import "sort"

// Sweep removes nodes that no primary output or flip-flop transitively
// reads. It returns the number of removed nodes. Node IDs of surviving
// nodes are preserved (removal leaves tombstones until Compact).
//
// Swept nodes are marked by clearing their fanins and setting Type to
// "<dead>"; Compact rebuilds dense IDs.
func (n *Netlist) Sweep() int {
	live := make([]bool, len(n.nodes))
	var stack []NodeID
	mark := func(id NodeID) {
		if id != Nil && !live[id] {
			live[id] = true
			stack = append(stack, id)
		}
	}
	for _, id := range n.pos {
		mark(id)
	}
	// Flip-flops are observable state even without a PO path only if
	// something reads them; we keep FFs reachable from POs, and FFs
	// feeding other live logic get marked transitively.
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range n.nodes[id].Fanins {
			mark(f)
		}
	}
	// Primary inputs always survive: the interface is part of the
	// design contract.
	for _, id := range n.pis {
		live[id] = true
	}
	removed := 0
	for _, node := range n.nodes {
		if !live[node.ID] && node.Type != "<dead>" {
			node.Fanins = nil
			node.Type = "<dead>"
			node.Kind = KindConst
			node.ConstVal = false
			removed++
		}
	}
	if removed > 0 {
		n.fanoutsValid = false
	}
	return removed
}

// Compact rebuilds the netlist with dense IDs, dropping nodes marked
// dead by Sweep and constants with no readers. It returns a mapping
// from old to new IDs (Nil for dropped nodes).
func (n *Netlist) Compact() []NodeID {
	remap := make([]NodeID, len(n.nodes))
	for i := range remap {
		remap[i] = Nil
	}
	var kept []*Node
	for _, node := range n.nodes {
		if node.Type == "<dead>" {
			continue
		}
		if node.Kind == KindConst && len(n.Fanouts(node.ID)) == 0 {
			continue
		}
		remap[node.ID] = NodeID(len(kept))
		kept = append(kept, node)
	}
	for _, node := range kept {
		node.ID = remap[node.ID]
		for i, f := range node.Fanins {
			node.Fanins[i] = remap[f]
		}
	}
	rewrite := func(ids []NodeID) []NodeID {
		out := ids[:0]
		for _, id := range ids {
			if remap[id] != Nil {
				out = append(out, remap[id])
			}
		}
		return out
	}
	n.pis = rewrite(n.pis)
	n.pos = rewrite(n.pos)
	n.nodes = kept
	n.fanoutsValid = false
	return remap
}

// Clone deep-copies the netlist.
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{Name: n.Name}
	c.nodes = make([]*Node, len(n.nodes))
	for i, node := range n.nodes {
		cp := *node
		cp.Fanins = append([]NodeID(nil), node.Fanins...)
		c.nodes[i] = &cp
	}
	c.pis = append([]NodeID(nil), n.pis...)
	c.pos = append([]NodeID(nil), n.pos...)
	return c
}

// PortNames returns the sorted PI and PO names; useful for interface
// comparisons in tests.
func (n *Netlist) PortNames() (pis, pos []string) {
	for _, id := range n.pis {
		pis = append(pis, n.nodes[id].Name)
	}
	for _, id := range n.pos {
		pos = append(pos, n.nodes[id].Name)
	}
	sort.Strings(pis)
	sort.Strings(pos)
	return pis, pos
}
