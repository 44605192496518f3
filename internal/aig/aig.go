// Package aig implements an And-Inverter Graph with structural
// hashing, the logic-optimization core of the flow's synthesis stage
// (standing in for the commercial logic optimizer in the paper's
// Figure 6). Sequential designs are handled by extracting the
// combinational core: flip-flop outputs become AIG inputs and flip-flop
// data pins become AIG outputs.
package aig

import (
	"fmt"

	"vpga/internal/logic"
)

// Lit is a literal: a node index shifted left once, with the low bit
// set when the edge is complemented. Lit 0 is constant false, Lit 1
// constant true.
type Lit uint32

// ConstFalse and ConstTrue are the constant literals.
const (
	ConstFalse Lit = 0
	ConstTrue  Lit = 1
)

// MkLit builds a literal from a node index and complement flag.
func MkLit(node int, neg bool) Lit {
	l := Lit(node) << 1
	if neg {
		l |= 1
	}
	return l
}

// Node returns the node index of the literal.
func (l Lit) Node() int { return int(l >> 1) }

// Neg reports whether the edge is complemented.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not complements the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

type node struct {
	f0, f1 Lit // fanins; f0 == f1 == 0 and index > 0 marks a PI
	isPI   bool
	level  int32
	refs   int32 // structural fanout count (maintained lazily)
}

// AIG is an and-inverter graph. Node 0 is the constant-false node.
type AIG struct {
	nodes  []node
	pis    []int // node indexes of primary inputs
	pos    []Lit
	strash map[uint64]int
}

// New creates an empty AIG containing only the constant node.
func New() *AIG {
	return &AIG{nodes: []node{{}}, strash: map[uint64]int{}}
}

// NumNodes returns the node count including the constant node.
func (g *AIG) NumNodes() int { return len(g.nodes) }

// NumAnds returns the number of AND nodes.
func (g *AIG) NumAnds() int { return len(g.nodes) - 1 - len(g.pis) }

// NumPIs returns the number of primary inputs.
func (g *AIG) NumPIs() int { return len(g.pis) }

// NumPOs returns the number of primary outputs.
func (g *AIG) NumPOs() int { return len(g.pos) }

// AddPI appends a primary input and returns its (positive) literal.
func (g *AIG) AddPI() Lit {
	idx := len(g.nodes)
	g.nodes = append(g.nodes, node{isPI: true})
	g.pis = append(g.pis, idx)
	return MkLit(idx, false)
}

// AddPO registers l as the next primary output.
func (g *AIG) AddPO(l Lit) int {
	g.pos = append(g.pos, l)
	return len(g.pos) - 1
}

// PO returns output i's literal.
func (g *AIG) PO(i int) Lit { return g.pos[i] }

// PIs returns the PI node indexes in creation order.
func (g *AIG) PIs() []int { return g.pis }

// IsAnd reports whether n is an AND node.
func (g *AIG) IsAnd(n int) bool { return n > 0 && !g.nodes[n].isPI }

// Fanins returns the fanin literals of AND node n.
func (g *AIG) Fanins(n int) (Lit, Lit) { return g.nodes[n].f0, g.nodes[n].f1 }

func strashKey(a, b Lit) uint64 { return uint64(a)<<32 | uint64(b) }

// And returns a literal for a·b, applying constant folding, trivial
// rules and structural hashing.
func (g *AIG) And(a, b Lit) Lit {
	// Normalize order.
	if a > b {
		a, b = b, a
	}
	switch {
	case a == ConstFalse:
		return ConstFalse
	case a == ConstTrue:
		return b
	case a == b:
		return a
	case a == b.Not():
		return ConstFalse
	}
	if idx, ok := g.strash[strashKey(a, b)]; ok {
		return MkLit(idx, false)
	}
	idx := len(g.nodes)
	lv := g.nodes[a.Node()].level
	if l1 := g.nodes[b.Node()].level; l1 > lv {
		lv = l1
	}
	g.nodes = append(g.nodes, node{f0: a, f1: b, level: lv + 1})
	g.strash[strashKey(a, b)] = idx
	return MkLit(idx, false)
}

// Or returns a+b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a⊕b.
func (g *AIG) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Mux returns s'·d0 + s·d1.
func (g *AIG) Mux(s, d0, d1 Lit) Lit {
	return g.Or(g.And(s.Not(), d0), g.And(s, d1))
}

// FromTT synthesizes fn over the given input literals by recursive
// Shannon decomposition (with structural hashing deduplicating shared
// cofactors).
func (g *AIG) FromTT(fn logic.TT, inputs []Lit) Lit {
	if len(inputs) != fn.N {
		panic(fmt.Sprintf("aig: FromTT arity %d with %d inputs", fn.N, len(inputs)))
	}
	if fn.IsConst(false) {
		return ConstFalse
	}
	if fn.IsConst(true) {
		return ConstTrue
	}
	// Pick the last dependent variable as the decomposition top.
	top := -1
	for i := fn.N - 1; i >= 0; i-- {
		if fn.DependsOn(i) {
			top = i
			break
		}
	}
	if top < 0 {
		panic("aig: non-constant table with empty support")
	}
	g0, g1 := fn.Cofactor(top, false), fn.Cofactor(top, true)
	rest := make([]Lit, 0, fn.N-1)
	rest = append(rest, inputs[:top]...)
	rest = append(rest, inputs[top+1:]...)
	l0 := g.FromTT(g0, rest)
	l1 := g.FromTT(g1, rest)
	return g.Mux(inputs[top], l0, l1)
}

// Level returns the AND-depth of literal l's node.
func (g *AIG) Level(l Lit) int { return int(g.nodes[l.Node()].level) }

// MaxLevel returns the largest PO level.
func (g *AIG) MaxLevel() int {
	max := 0
	for _, po := range g.pos {
		if lv := g.Level(po); lv > max {
			max = lv
		}
	}
	return max
}

// Eval computes all node values under the given PI assignment
// (piVals[i] drives the i-th created PI) and returns each PO's value.
func (g *AIG) Eval(piVals []bool) []bool {
	if len(piVals) != len(g.pis) {
		panic(fmt.Sprintf("aig: Eval got %d values for %d PIs", len(piVals), len(g.pis)))
	}
	val := make([]bool, len(g.nodes))
	for i, idx := range g.pis {
		val[idx] = piVals[i]
	}
	for idx := 1; idx < len(g.nodes); idx++ {
		nd := &g.nodes[idx]
		if nd.isPI {
			continue
		}
		a := val[nd.f0.Node()] != nd.f0.Neg()
		b := val[nd.f1.Node()] != nd.f1.Neg()
		val[idx] = a && b
	}
	out := make([]bool, len(g.pos))
	for i, po := range g.pos {
		out[i] = val[po.Node()] != po.Neg()
	}
	return out
}

// CountLive returns the number of AND nodes reachable from the POs.
func (g *AIG) CountLive() int {
	mark := make([]bool, len(g.nodes))
	var visit func(n int)
	visit = func(n int) {
		if mark[n] || !g.IsAnd(n) {
			return
		}
		mark[n] = true
		visit(g.nodes[n].f0.Node())
		visit(g.nodes[n].f1.Node())
	}
	for _, po := range g.pos {
		visit(po.Node())
	}
	live := 0
	for n := range mark {
		if mark[n] {
			live++
		}
	}
	return live
}

// Compacted returns a new AIG containing only nodes reachable from the
// POs, preserving PI order and PO order. The second return maps old
// literals to new ones.
func (g *AIG) Compacted() (*AIG, func(Lit) Lit) {
	ng := New()
	remap := make([]Lit, len(g.nodes))
	for i := range remap {
		remap[i] = Lit(^uint32(0))
	}
	remap[0] = ConstFalse
	for range g.pis {
		// Recreate all PIs to preserve the interface.
		ng.AddPI()
	}
	for i, idx := range g.pis {
		remap[idx] = MkLit(1+i, false) // PIs occupy nodes 1..NumPIs in ng
	}
	var rebuild func(n int) Lit
	rebuild = func(n int) Lit {
		if remap[n] != Lit(^uint32(0)) {
			return remap[n]
		}
		nd := g.nodes[n]
		a := rebuild(nd.f0.Node()).NotIf(nd.f0.Neg())
		b := rebuild(nd.f1.Node()).NotIf(nd.f1.Neg())
		l := ng.And(a, b)
		remap[n] = l
		return l
	}
	for _, po := range g.pos {
		ng.AddPO(rebuild(po.Node()).NotIf(po.Neg()))
	}
	mapLit := func(l Lit) Lit {
		r := remap[l.Node()]
		if r == Lit(^uint32(0)) {
			return r
		}
		return r.NotIf(l.Neg())
	}
	return ng, mapLit
}

// Fanouts builds the AND-node fanout lists (PO references are not
// included; use PORefs).
func (g *AIG) Fanouts() [][]int {
	out := make([][]int, len(g.nodes))
	for idx := 1; idx < len(g.nodes); idx++ {
		nd := &g.nodes[idx]
		if nd.isPI {
			continue
		}
		out[nd.f0.Node()] = append(out[nd.f0.Node()], idx)
		out[nd.f1.Node()] = append(out[nd.f1.Node()], idx)
	}
	return out
}

// PORefs counts how many POs reference each node.
func (g *AIG) PORefs() []int {
	refs := make([]int, len(g.nodes))
	for _, po := range g.pos {
		refs[po.Node()]++
	}
	return refs
}

// String summarizes the graph.
func (g *AIG) String() string {
	return fmt.Sprintf("aig: %d PIs, %d POs, %d ANDs, depth %d",
		len(g.pis), len(g.pos), g.NumAnds(), g.MaxLevel())
}
