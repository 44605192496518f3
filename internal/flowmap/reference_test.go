package flowmap

import "sort"

// FindKCut is the map-based K-cut search CutFinder replaced, kept as
// the reference the finder is tested against. It builds five maps and
// a fresh flow network per call, and adds the network's edges in map
// order. fanins yields a node's fanin node IDs; unlike the finder it
// asks isLeaf about root too, and fails if root is a leaf. Otherwise
// its contract is CutFinder.Find's.
func FindKCut(root int, K, maxCone int, fanins func(int) []int, isLeaf func(int) bool) (CutResult, bool) {
	if isLeaf(root) {
		return CutResult{}, false
	}
	// Trivial single-node "cut at the root's fanins" is handled by the
	// general machinery; collect the bounded cone first.
	cone := map[int]bool{root: true}
	leaf := map[int]bool{}
	frontier := []int{root}
	order := []int{root}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, f := range fanins(n) {
			if cone[f] || leaf[f] {
				continue
			}
			if isLeaf(f) || len(cone)+len(leaf) >= maxCone {
				leaf[f] = true
				order = append(order, f)
				continue
			}
			cone[f] = true
			order = append(order, f)
			frontier = append(frontier, f)
		}
	}
	if len(leaf) == 0 {
		// Root depends on nothing expandable; no meaningful cut.
		return CutResult{}, false
	}
	// Quick win: if the total leaf count is already ≤ K the leaf set is
	// a cut.
	if len(leaf) <= K {
		leaves := keys(leaf)
		cluster := keys(cone)
		sort.Ints(leaves)
		sort.Ints(cluster)
		return CutResult{Leaves: leaves, Cluster: cluster}, true
	}

	// Node-split flow network: source S, then for each cone/leaf node
	// two vertices in/out with capacity 1, root collapsed to the sink.
	// S → leaf_in: ∞; u_out → v_in for v ∈ cone reading u: ∞.
	id := map[int]int{}
	assign := func(n int) int {
		if v, ok := id[n]; ok {
			return v
		}
		v := len(id)
		id[n] = v
		return v
	}
	for _, n := range order {
		assign(n)
	}
	numNodes := len(id)
	// Vertex numbering: S = 0, T = 1, in(n) = 2+2*id, out(n) = 3+2*id.
	din := func(n int) int { return 2 + 2*id[n] }
	dout := func(n int) int { return 3 + 2*id[n] }
	g := NewDinic(2 + 2*numNodes)
	const S, T = 0, 1
	for n := range leaf {
		g.AddEdge(S, din(n), Inf)
		g.AddEdge(din(n), dout(n), 1)
	}
	for n := range cone {
		if n == root {
			g.AddEdge(din(n), T, Inf)
		} else {
			g.AddEdge(din(n), dout(n), 1)
		}
		for _, f := range fanins(n) {
			if cone[f] || leaf[f] {
				g.AddEdge(dout(f), din(n), Inf)
			}
		}
	}
	flow := g.MaxFlow(S, T, int64(K))
	if flow > int64(K) {
		return CutResult{}, false
	}
	// Min-cut: nodes whose in-vertex is residual-reachable but
	// out-vertex is not.
	reach := g.ResidualReachable(S)
	var leaves []int
	cutSet := map[int]bool{}
	for n := range id {
		if n == root {
			continue
		}
		if reach[din(n)] && !reach[dout(n)] {
			leaves = append(leaves, n)
			cutSet[n] = true
		}
	}
	// Cluster: nodes above the cut, found by backward traversal from
	// root stopping at cut nodes.
	var cluster []int
	seen := map[int]bool{root: true}
	stack := []int{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cluster = append(cluster, n)
		for _, f := range fanins(n) {
			if seen[f] || cutSet[f] {
				continue
			}
			if !cone[f] {
				// A path reaches beyond the cut — should not happen
				// with a valid min-cut.
				return CutResult{}, false
			}
			seen[f] = true
			stack = append(stack, f)
		}
	}
	sort.Ints(leaves)
	sort.Ints(cluster)
	return CutResult{Leaves: leaves, Cluster: cluster}, true
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
