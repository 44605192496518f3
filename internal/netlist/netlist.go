// Package netlist defines the gate-level intermediate representation
// shared by every stage of the VPGA flow: a directed graph of primary
// inputs, primary outputs, combinational cell instances, constants and
// D flip-flops. Cell semantics are carried as truth tables so that any
// stage can simulate, verify or re-match logic without consulting a
// library.
package netlist

import (
	"fmt"
	"sort"
	"strings"

	"vpga/internal/logic"
)

// NodeID identifies a node within one Netlist. IDs are dense and stable
// under everything except Compact.
type NodeID int32

// Nil is the absent node.
const Nil NodeID = -1

// Kind discriminates node roles.
type Kind uint8

const (
	// KindInput is a primary input.
	KindInput Kind = iota
	// KindOutput is a primary output; it has exactly one fanin and
	// passes it through.
	KindOutput
	// KindGate is a combinational cell instance with a truth table over
	// its fanins.
	KindGate
	// KindDFF is a D flip-flop: fanin 0 is D, the node's value is Q.
	KindDFF
	// KindConst is a constant driver.
	KindConst
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindOutput:
		return "output"
	case KindGate:
		return "gate"
	case KindDFF:
		return "dff"
	case KindConst:
		return "const"
	default:
		return "invalid"
	}
}

// Node is one vertex of the netlist graph.
type Node struct {
	ID     NodeID
	Kind   Kind
	Name   string // port name for IO nodes, instance name otherwise (may be empty)
	Type   string // cell type name for gates, e.g. "ND3WI"
	Fanins []NodeID
	// Func is the gate's function over its fanins (input i of Func is
	// Fanins[i]). Unset for non-gate nodes.
	Func logic.TT
	// ConstVal is the value of a KindConst node.
	ConstVal bool
	// Group links nodes belonging to one multi-output macro instance
	// (e.g. the two outputs of a packed full adder). Zero means no
	// group.
	Group int32
}

// Netlist is a mutable gate-level design.
type Netlist struct {
	Name  string
	nodes []*Node
	pis   []NodeID
	pos   []NodeID

	fanouts      [][]NodeID
	fanoutsValid bool
}

// New creates an empty netlist.
func New(name string) *Netlist {
	return &Netlist{Name: name}
}

func (n *Netlist) add(node *Node) NodeID {
	node.ID = NodeID(len(n.nodes))
	n.nodes = append(n.nodes, node)
	n.fanoutsValid = false
	return node.ID
}

// AddInput appends a primary input with the given port name.
func (n *Netlist) AddInput(name string) NodeID {
	id := n.add(&Node{Kind: KindInput, Name: name})
	n.pis = append(n.pis, id)
	return id
}

// AddOutput appends a primary output driven by src.
func (n *Netlist) AddOutput(name string, src NodeID) NodeID {
	id := n.add(&Node{Kind: KindOutput, Name: name, Fanins: []NodeID{src}})
	n.pos = append(n.pos, id)
	return id
}

// AddGate appends a combinational cell instance. The truth table's
// arity must match the fanin count.
func (n *Netlist) AddGate(typ string, fn logic.TT, fanins ...NodeID) NodeID {
	if fn.N != len(fanins) {
		panic(fmt.Sprintf("netlist: gate %s function arity %d != %d fanins", typ, fn.N, len(fanins)))
	}
	return n.add(&Node{Kind: KindGate, Type: typ, Func: fn, Fanins: append([]NodeID(nil), fanins...)})
}

// AddDFF appends a D flip-flop with data input d.
func (n *Netlist) AddDFF(name string, d NodeID) NodeID {
	return n.add(&Node{Kind: KindDFF, Name: name, Type: "DFF", Fanins: []NodeID{d}})
}

// AddConst appends a constant driver.
func (n *Netlist) AddConst(v bool) NodeID {
	return n.add(&Node{Kind: KindConst, ConstVal: v})
}

// Node returns the node with the given ID.
func (n *Netlist) Node(id NodeID) *Node { return n.nodes[id] }

// NumNodes returns the total node count.
func (n *Netlist) NumNodes() int { return len(n.nodes) }

// PIs returns the primary input IDs in declaration order.
func (n *Netlist) PIs() []NodeID { return n.pis }

// POs returns the primary output IDs in declaration order.
func (n *Netlist) POs() []NodeID { return n.pos }

// Nodes iterates over all nodes in ID order.
func (n *Netlist) Nodes() []*Node { return n.nodes }

// SetFanin redirects fanin slot i of node id to src.
func (n *Netlist) SetFanin(id NodeID, i int, src NodeID) {
	n.nodes[id].Fanins[i] = src
	n.fanoutsValid = false
}

// Fanouts returns the IDs of nodes reading id. The returned slice is
// shared; callers must not mutate it.
func (n *Netlist) Fanouts(id NodeID) []NodeID {
	if !n.fanoutsValid {
		n.fanouts = make([][]NodeID, len(n.nodes))
		for _, node := range n.nodes {
			for _, f := range node.Fanins {
				if f != Nil {
					n.fanouts[f] = append(n.fanouts[f], node.ID)
				}
			}
		}
		n.fanoutsValid = true
	}
	return n.fanouts[id]
}

// FanoutCount returns len(Fanouts(id)).
func (n *Netlist) FanoutCount(id NodeID) int { return len(n.Fanouts(id)) }

// TopoOrder returns all node IDs in a combinational topological order:
// inputs, constants and flip-flops first (their Q outputs are
// combinational sources), then gates and outputs such that every gate
// follows its fanins. DFF D-inputs do not constrain the order. An error
// is returned if the combinational graph has a cycle.
func (n *Netlist) TopoOrder() ([]NodeID, error) {
	indeg := make([]int, len(n.nodes))
	for _, node := range n.nodes {
		if node.Kind == KindDFF {
			continue // sequential edge: no combinational dependency
		}
		for _, f := range node.Fanins {
			if f != Nil {
				indeg[node.ID]++
			}
		}
	}
	order := make([]NodeID, 0, len(n.nodes))
	queue := make([]NodeID, 0, len(n.nodes))
	for _, node := range n.nodes {
		if indeg[node.ID] == 0 {
			queue = append(queue, node.ID)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, out := range n.Fanouts(id) {
			if n.nodes[out].Kind == KindDFF {
				continue
			}
			indeg[out]--
			if indeg[out] == 0 {
				queue = append(queue, out)
			}
		}
	}
	// DFFs with zero in-degree were already queued; DFFs never gain
	// combinational in-degree, so all were. Gates stuck with positive
	// in-degree indicate a combinational cycle.
	if len(order) != len(n.nodes) {
		return nil, fmt.Errorf("netlist %s: combinational cycle (%d of %d nodes ordered)",
			n.Name, len(order), len(n.nodes))
	}
	return order, nil
}

// Validate checks structural invariants: fanin IDs are in range, IO
// arities are correct, gate truth tables match fanin counts, and the
// combinational graph is acyclic.
func (n *Netlist) Validate() error {
	for _, node := range n.nodes {
		for _, f := range node.Fanins {
			if f < 0 || int(f) >= len(n.nodes) {
				return fmt.Errorf("netlist %s: node %d has out-of-range fanin %d", n.Name, node.ID, f)
			}
			if n.nodes[f].Kind == KindOutput {
				return fmt.Errorf("netlist %s: node %d reads from output node %d", n.Name, node.ID, f)
			}
		}
		switch node.Kind {
		case KindInput, KindConst:
			if len(node.Fanins) != 0 {
				return fmt.Errorf("netlist %s: %s node %d has fanins", n.Name, node.Kind, node.ID)
			}
		case KindOutput, KindDFF:
			if len(node.Fanins) != 1 {
				return fmt.Errorf("netlist %s: %s node %d has %d fanins, want 1", n.Name, node.Kind, node.ID, len(node.Fanins))
			}
		case KindGate:
			if node.Func.N != len(node.Fanins) {
				return fmt.Errorf("netlist %s: gate %d arity mismatch: func %d, fanins %d",
					n.Name, node.ID, node.Func.N, len(node.Fanins))
			}
		}
	}
	_, err := n.TopoOrder()
	return err
}

// Stats summarizes a netlist.
type Stats struct {
	Inputs, Outputs, Gates, DFFs, Consts int
	ByType                               map[string]int
	Levels                               int // combinational depth in gate counts
}

// ComputeStats tallies node counts by kind and type, and the logic
// depth.
func (n *Netlist) ComputeStats() Stats {
	s := Stats{ByType: map[string]int{}}
	for _, node := range n.nodes {
		switch node.Kind {
		case KindInput:
			s.Inputs++
		case KindOutput:
			s.Outputs++
		case KindGate:
			s.Gates++
			s.ByType[node.Type]++
		case KindDFF:
			s.DFFs++
			s.ByType[node.Type]++
		case KindConst:
			s.Consts++
		}
	}
	order, err := n.TopoOrder()
	if err == nil {
		level := make([]int, len(n.nodes))
		for _, id := range order {
			node := n.nodes[id]
			if node.Kind != KindGate && node.Kind != KindOutput {
				continue
			}
			max := 0
			for _, f := range node.Fanins {
				if level[f] > max {
					max = level[f]
				}
			}
			if node.Kind == KindGate {
				max++
			}
			level[id] = max
			if max > s.Levels {
				s.Levels = max
			}
		}
	}
	return s
}

// String renders a short human-readable summary.
func (n *Netlist) String() string {
	s := n.ComputeStats()
	types := make([]string, 0, len(s.ByType))
	for t := range s.ByType {
		types = append(types, t)
	}
	sort.Strings(types)
	var sb strings.Builder
	fmt.Fprintf(&sb, "netlist %s: %d PI, %d PO, %d gates, %d FF, depth %d",
		n.Name, s.Inputs, s.Outputs, s.Gates, s.DFFs, s.Levels)
	for _, t := range types {
		fmt.Fprintf(&sb, " %s=%d", t, s.ByType[t])
	}
	return sb.String()
}
