package flowmap

import (
	"math/rand"
	"slices"
	"testing"
)

func TestDinicBasic(t *testing.T) {
	// Classic 4-node diamond: s=0, t=3; two disjoint paths of cap 1.
	g := NewDinic(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	if f := g.MaxFlow(0, 3, -1); f != 2 {
		t.Fatalf("flow = %d, want 2", f)
	}
}

func TestDinicBottleneck(t *testing.T) {
	// s -> a (cap 5), a -> b (cap 2), b -> t (cap 9): flow 2.
	g := NewDinic(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 9)
	if f := g.MaxFlow(0, 3, -1); f != 2 {
		t.Fatalf("flow = %d, want 2", f)
	}
	reach := g.ResidualReachable(0)
	if !reach[0] || !reach[1] || reach[2] || reach[3] {
		t.Fatalf("residual reachability wrong: %v", reach)
	}
}

func TestDinicEarlyTermination(t *testing.T) {
	// 10 parallel unit paths; limit 3 must stop early with flow > 3.
	g := NewDinic(12)
	for i := 0; i < 10; i++ {
		g.AddEdge(0, 2+i, 1)
		g.AddEdge(2+i, 1, 1)
	}
	f := g.MaxFlow(0, 1, 3)
	if f <= 3 {
		t.Fatalf("flow = %d, expected witness > 3", f)
	}
}

// chainGraph builds fanins for a linear chain 0 <- 1 <- 2 ... (node i
// reads node i-1); node 0 is the source.
func chainFanins(n int) func(int) []int {
	return func(i int) []int {
		if i == 0 {
			return nil
		}
		return []int{i - 1}
	}
}

func TestFindKCutChain(t *testing.T) {
	fanins := chainFanins(10)
	isLeaf := func(n int) bool { return n == 0 }
	res, ok := findBoth(t, 10, 9, 3, 100, fanins, isLeaf)
	if !ok {
		t.Fatal("chain must have a 1-feasible cut")
	}
	if len(res.Leaves) != 1 || res.Leaves[0] != 0 {
		t.Fatalf("leaves = %v, want [0]", res.Leaves)
	}
	if len(res.Cluster) != 9 {
		t.Fatalf("cluster size = %d, want 9", len(res.Cluster))
	}
}

func TestFindKCutInfeasible(t *testing.T) {
	// A node reading 5 distinct sources has no 3-feasible cut.
	fanins := func(n int) []int {
		if n == 5 {
			return []int{0, 1, 2, 3, 4}
		}
		return nil
	}
	isLeaf := func(n int) bool { return n < 5 }
	if _, ok := findBoth(t, 6, 5, 3, 100, fanins, isLeaf); ok {
		t.Fatal("5-input node reported 3-feasible")
	}
	if res, ok := findBoth(t, 6, 5, 5, 100, fanins, isLeaf); !ok || len(res.Leaves) != 5 {
		t.Fatalf("5-input node must be 5-feasible: %v %v", res, ok)
	}
}

func TestFindKCutReconvergence(t *testing.T) {
	// Diamond: root 4 reads 2 and 3; both read 1; 1 reads 0.
	// The 1-cut {1} exists even though root has 2 fanins.
	fanins := func(n int) []int {
		switch n {
		case 4:
			return []int{2, 3}
		case 2, 3:
			return []int{1}
		case 1:
			return []int{0}
		}
		return nil
	}
	isLeaf := func(n int) bool { return n == 0 }
	res, ok := findBoth(t, 5, 4, 1, 100, fanins, isLeaf)
	if !ok {
		t.Fatal("diamond must have a 1-feasible cut")
	}
	if len(res.Leaves) != 1 {
		t.Fatalf("leaves = %v, want a single node", res.Leaves)
	}
	// Cut at node 1 or node 0 both valid; cluster must contain root.
	found := false
	for _, c := range res.Cluster {
		if c == 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("cluster missing root")
	}
}

// verifyCut checks that removing the cut nodes disconnects root from
// all sources.
func verifyCut(t *testing.T, root int, cut []int, fanins func(int) []int) {
	t.Helper()
	inCut := map[int]bool{}
	for _, c := range cut {
		inCut[c] = true
	}
	var walk func(n int)
	walk = func(n int) {
		if inCut[n] {
			return
		}
		fi := fanins(n)
		if len(fi) == 0 {
			t.Fatalf("cut %v of root %d misses a path to source %d", cut, root, n)
		}
		for _, f := range fi {
			walk(f)
		}
	}
	walk(root)
}

func TestDinicZeroFlow(t *testing.T) {
	g := NewDinic(2)
	if f := g.MaxFlow(0, 1, -1); f != 0 {
		t.Fatalf("disconnected flow = %d", f)
	}
	reach := g.ResidualReachable(0)
	if !reach[0] || reach[1] {
		t.Fatal("reachability wrong on empty graph")
	}
}

func TestDinicParallelEdges(t *testing.T) {
	g := NewDinic(2)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 3)
	if f := g.MaxFlow(0, 1, -1); f != 5 {
		t.Fatalf("parallel edges flow = %d, want 5", f)
	}
}

func TestFindKCutRootIsLeaf(t *testing.T) {
	fanins := func(int) []int { return nil }
	isLeaf := func(int) bool { return true }
	if _, ok := FindKCut(0, 3, 10, fanins, isLeaf); ok {
		t.Fatal("leaf root produced a cut")
	}
	// The finder expands its root whatever isLeaf says; a root reading
	// nothing still has no cut.
	if _, ok := NewCutFinder(make([][]int, 1)).Find(0, 3, 10, isLeaf); ok {
		t.Fatal("fanin-less root produced a cut")
	}
}

func TestFindKCutConeBoundTruncation(t *testing.T) {
	// A long chain with a tiny cone bound: the cut must still be valid
	// (truncation points become leaves).
	fanins := chainFanins(100)
	isLeaf := func(n int) bool { return n == 0 }
	res, ok := findBoth(t, 100, 99, 3, 5, fanins, isLeaf)
	if !ok {
		t.Fatal("bounded cone found no cut")
	}
	verifyCut(t, 99, res.Leaves, fanins)
}

// faninTable materializes the fanins of nodes 0..n-1.
func faninTable(n int, fanins func(int) []int) [][]int {
	tab := make([][]int, n)
	for i := range tab {
		tab[i] = fanins(i)
	}
	return tab
}

// findBoth runs the reference FindKCut and a CutFinder over the graph's
// first n nodes, fails the test unless they agree, and returns the
// reference's answer.
func findBoth(t *testing.T, n, root, K, maxCone int, fanins func(int) []int, isLeaf func(int) bool) (CutResult, bool) {
	t.Helper()
	want, wantOK := FindKCut(root, K, maxCone, fanins, isLeaf)
	got, ok := NewCutFinder(faninTable(n, fanins)).Find(root, K, maxCone, isLeaf)
	if !sameCut(got, ok, want, wantOK) {
		t.Fatalf("root %d K %d: finder %v %v, reference %v %v", root, K, got, ok, want, wantOK)
	}
	return want, wantOK
}

func sameCut(a CutResult, aOK bool, b CutResult, bOK bool) bool {
	return aOK == bOK && slices.Equal(a.Leaves, b.Leaves) && slices.Equal(a.Cluster, b.Cluster)
}

// TestKCutMatchesReference runs one reused CutFinder per seeded random
// DAG against the map-based reference for every non-leaf root, with K 1
// to 4 and bounded and unbounded cones: leaves, cluster and the ok flag
// must be identical.
func TestKCutMatchesReference(t *testing.T) {
	found := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(160)
		sources := 3 + rng.Intn(8)
		tab := make([][]int, n)
		boundary := make([]bool, n)
		for i := sources; i < n; i++ {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				// Mostly recent nodes, so cones are deep; repeats allowed.
				lo := max(0, i-1-rng.Intn(24))
				tab[i] = append(tab[i], lo+rng.Intn(i-lo))
			}
			boundary[i] = rng.Intn(8) == 0
		}
		isLeaf := func(v int) bool { return v < sources || boundary[v] }
		fanins := func(v int) []int { return tab[v] }
		finder := NewCutFinder(tab)
		for root := sources; root < n; root++ {
			if boundary[root] {
				continue
			}
			for K := 1; K <= 4; K++ {
				for _, maxCone := range []int{6, 48, 1 << 30} {
					want, wantOK := FindKCut(root, K, maxCone, fanins, isLeaf)
					got, ok := finder.Find(root, K, maxCone, isLeaf)
					if !sameCut(got, ok, want, wantOK) {
						t.Fatalf("seed %d root %d K %d maxCone %d: finder %v %v, reference %v %v",
							seed, root, K, maxCone, got, ok, want, wantOK)
					}
					if ok {
						found++
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no search found a cut; the comparison is vacuous")
	}
}
