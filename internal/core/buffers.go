package core

import (
	"vpga/internal/logic"
	"vpga/internal/netlist"
)

// maxFanout is the fanout ceiling enforced by buffer insertion; the
// paper's physical-synthesis stage performs "buffer insertion ... to
// meet timing constraints" (Sec. 3.1). Keeping every driver under this
// load bounds the Drive × Cload term at scale.
const maxFanout = 10

// insertBuffers splits every net with more than maxFanout sinks into a
// balanced buffer tree. Buffers are absorbed by the PLBs' programmable
// buffers at packing time; in flow a they are ordinary cells. Returns
// the number of buffers added.
func insertBuffers(nl *netlist.Netlist) int {
	bufTT := logic.VarTT(1, 0)
	added := 0
	// The original nodes only: buffers are appended while iterating.
	nodes := nl.Nodes()
	// Snapshot every driver's fanout list, in Fanouts' order, before
	// inserting any buffer: one index build, not one per buffer tree.
	// Buffering a net rewires only that driver's sinks, and the new
	// buffers read only that driver or each other, so every later
	// driver's list is still the snapshot's (DESIGN §6). CSR form: off
	// counts, then prefix-sums to list ends, then the back-to-front
	// fill walks each down to its list's start.
	off := make([]int32, len(nodes)+1)
	for _, n := range nodes {
		for _, f := range n.Fanins {
			if f != netlist.Nil {
				off[f]++
			}
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	sinks := make([]netlist.NodeID, off[len(nodes)])
	for i := len(nodes) - 1; i >= 0; i-- {
		fanins := nodes[i].Fanins
		for j := len(fanins) - 1; j >= 0; j-- {
			if f := fanins[j]; f != netlist.Nil {
				off[f]--
				sinks[off[f]] = nodes[i].ID
			}
		}
	}
	for _, n := range nodes {
		switch n.Kind {
		case netlist.KindGate, netlist.KindDFF, netlist.KindInput:
		default:
			continue
		}
		outs := sinks[off[n.ID]:off[n.ID+1]]
		if len(outs) <= maxFanout {
			continue
		}
		// Recursively split the sink list. Sinks that are primary
		// outputs keep the original driver so port timing stays direct.
		var build func(sinks []netlist.NodeID) netlist.NodeID
		build = func(sinks []netlist.NodeID) netlist.NodeID {
			buf := nl.AddGate("BUF", bufTT, n.ID)
			added++
			if len(sinks) <= maxFanout {
				for _, s := range sinks {
					retarget(nl, s, n.ID, buf)
				}
				return buf
			}
			// Group into ≤maxFanout children.
			per := (len(sinks) + maxFanout - 1) / maxFanout
			if per < maxFanout {
				per = maxFanout
			}
			var children []netlist.NodeID
			for i := 0; i < len(sinks); i += per {
				end := i + per
				if end > len(sinks) {
					end = len(sinks)
				}
				children = append(children, build(sinks[i:end]))
			}
			// Chain the child buffers under this one.
			for _, c := range children {
				nl.SetFanin(c, 0, buf)
			}
			return buf
		}
		var movable []netlist.NodeID
		for _, s := range outs {
			if nl.Node(s).Kind == netlist.KindOutput {
				continue
			}
			movable = append(movable, s)
		}
		if len(movable) <= maxFanout {
			continue
		}
		build(movable)
	}
	return added
}

// retarget rewires sink's fanin slots reading old to read new.
func retarget(nl *netlist.Netlist, sink, old, new netlist.NodeID) {
	node := nl.Node(sink)
	for i, f := range node.Fanins {
		if f == old {
			nl.SetFanin(sink, i, new)
		}
	}
}
