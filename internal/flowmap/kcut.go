package flowmap

import "sort"

// CutResult describes a K-feasible cut found for a root node.
type CutResult struct {
	// Leaves are the cut nodes: every source-to-root path passes
	// through one of them, and |Leaves| ≤ K. Leaves are outside the
	// cluster; their outputs are the cluster's inputs.
	Leaves []int
	// Cluster is the set of nodes strictly inside the cut (between the
	// leaves and the root), including the root.
	Cluster []int
}

// CutFinder searches K-feasible cuts for many roots of one graph. It
// keeps its scratch between searches: node marks stamped with a
// per-search epoch instead of per-cone maps, and one flow network that
// each search resets instead of allocating.
type CutFinder struct {
	fanins [][]int

	epoch uint32
	stamp []uint32 // stamp[n] == epoch: n is in this search's cone or leaf set
	local []int32  // index into order of a stamped node

	// Per-search state, indexed like order (root first, then every
	// cone or leaf node in discovery order).
	order  []int
	leaf   []bool
	cut    []bool
	inClus []bool

	g       Dinic
	stack   []int
	leaves  []int
	cluster []int
}

// NewCutFinder returns a finder over the graph whose node n reads the
// nodes fanins[n]. The finder reads fanins on every search; the caller
// must not change it while the finder is in use.
func NewCutFinder(fanins [][]int) *CutFinder {
	return &CutFinder{
		fanins: fanins,
		stamp:  make([]uint32, len(fanins)),
		local:  make([]int32, len(fanins)),
	}
}

// Find searches for a node cut of size at most K separating root from
// the graph sources, using max-flow over the node-split cone of root
// (the FlowMap feasibility test). isLeaf marks nodes that terminate cone
// expansion (primary inputs, constants, flip-flop outputs, or any node
// the caller wants to keep outside clusters); it is never asked about
// root, which is always expanded. maxCone bounds cone exploration:
// frontier nodes beyond the bound are conservatively treated as leaves,
// which keeps the test sound (a returned cut is always valid) at the
// cost of possibly missing a feasible cut in pathological deep cones.
//
// The result's slices are sorted and belong to the finder: the next
// Find overwrites them.
func (c *CutFinder) Find(root, K, maxCone int, isLeaf func(int) bool) (CutResult, bool) {
	c.epoch++
	if c.epoch == 0 {
		clear(c.stamp)
		c.epoch = 1
	}
	c.stamp[root] = c.epoch
	c.local[root] = 0
	c.order = append(c.order[:0], root)
	c.leaf = append(c.leaf[:0], false)

	// Breadth-first over the cone: the cone nodes of order, taken in
	// order, are exactly the frontier queue.
	numLeaves := 0
	for qi := 0; qi < len(c.order); qi++ {
		if c.leaf[qi] {
			continue
		}
		for _, f := range c.fanins[c.order[qi]] {
			if c.stamp[f] == c.epoch {
				continue
			}
			leaf := isLeaf(f) || len(c.order) >= maxCone
			c.stamp[f] = c.epoch
			c.local[f] = int32(len(c.order))
			c.order = append(c.order, f)
			c.leaf = append(c.leaf, leaf)
			if leaf {
				numLeaves++
			}
		}
	}
	if numLeaves == 0 {
		// Root depends on nothing expandable; no meaningful cut.
		return CutResult{}, false
	}
	c.leaves, c.cluster = c.leaves[:0], c.cluster[:0]
	// Quick win: if the total leaf count is already ≤ K the leaf set is
	// a cut.
	if numLeaves <= K {
		for i, n := range c.order {
			if c.leaf[i] {
				c.leaves = append(c.leaves, n)
			} else {
				c.cluster = append(c.cluster, n)
			}
		}
		return c.result(), true
	}

	// Node-split flow network: source S, then for each cone/leaf node
	// two vertices in/out with capacity 1, root collapsed to the sink.
	// S → leaf_in: ∞; u_out → v_in for v ∈ cone reading u: ∞. Every
	// fanin of a cone node is in the cone or a leaf. Vertex numbering:
	// S = 0, T = 1, in(i) = 2+2i, out(i) = 3+2i for order index i.
	const S, T = 0, 1
	g := &c.g
	g.Reset(2 + 2*len(c.order))
	for i, n := range c.order {
		in := 2 + 2*i
		switch {
		case c.leaf[i]:
			g.AddEdge(S, in, Inf)
			g.AddEdge(in, in+1, 1)
			continue
		case i == 0:
			g.AddEdge(in, T, Inf)
		default:
			g.AddEdge(in, in+1, 1)
		}
		for _, f := range c.fanins[n] {
			g.AddEdge(3+2*int(c.local[f]), in, Inf)
		}
	}
	if g.MaxFlow(S, T, int64(K)) > int64(K) {
		return CutResult{}, false
	}
	// Min-cut: nodes whose in-vertex is residual-reachable but
	// out-vertex is not. The reachable set is the same for every
	// maximum flow, so the cut does not depend on the edge order.
	reach := g.ResidualReachable(S)
	c.cut = append(c.cut[:0], make([]bool, len(c.order))...)
	for i := 1; i < len(c.order); i++ {
		if reach[2+2*i] && !reach[3+2*i] {
			c.cut[i] = true
			c.leaves = append(c.leaves, c.order[i])
		}
	}
	// Cluster: nodes above the cut, found by backward traversal from
	// root stopping at cut nodes.
	c.inClus = append(c.inClus[:0], make([]bool, len(c.order))...)
	c.inClus[0] = true
	c.stack = append(c.stack[:0], root)
	for len(c.stack) > 0 {
		n := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		c.cluster = append(c.cluster, n)
		for _, f := range c.fanins[n] {
			li := c.local[f]
			if c.inClus[li] || c.cut[li] {
				continue
			}
			if c.leaf[li] {
				// A path reaches beyond the cut — should not happen
				// with a valid min-cut.
				return CutResult{}, false
			}
			c.inClus[li] = true
			c.stack = append(c.stack, f)
		}
	}
	return c.result(), true
}

func (c *CutFinder) result() CutResult {
	sort.Ints(c.leaves)
	sort.Ints(c.cluster)
	return CutResult{Leaves: c.leaves, Cluster: c.cluster}
}
