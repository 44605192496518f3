package netlist

import (
	"testing"

	"vpga/internal/logic"
)

// buildXorFF returns a tiny sequential design: q <= a XOR q, out = q.
func buildXorFF() *Netlist {
	n := New("xorff")
	a := n.AddInput("a")
	// Placeholder for the DFF; Go requires the gate before the DFF or
	// vice versa — create DFF with a temporary fanin and patch it.
	x := n.AddGate("XOR2", logic.TTXor2, a, a) // patched below
	q := n.AddDFF("q", x)
	n.SetFanin(x, 1, q)
	n.AddOutput("out", q)
	return n
}

func TestBuilderAndValidate(t *testing.T) {
	n := buildXorFF()
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := n.ComputeStats()
	if s.Inputs != 1 || s.Outputs != 1 || s.Gates != 1 || s.DFFs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestValidateCatchesArityMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddGate with wrong arity did not panic")
		}
	}()
	n := New("bad")
	a := n.AddInput("a")
	n.AddGate("AND2", logic.TTAnd2, a) // 2-input function, 1 fanin
}

func TestValidateCatchesCombinationalCycle(t *testing.T) {
	n := New("cyc")
	a := n.AddInput("a")
	g1 := n.AddGate("AND2", logic.TTAnd2, a, a)
	g2 := n.AddGate("OR2", logic.TTOr2, g1, g1)
	n.SetFanin(g1, 1, g2) // cycle g1 -> g2 -> g1
	n.AddOutput("y", g2)
	if err := n.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestDFFBreaksCycle(t *testing.T) {
	// The xorff design has a cycle through the flip-flop, which is fine.
	if err := buildXorFF().Validate(); err != nil {
		t.Fatalf("sequential loop through DFF must validate: %v", err)
	}
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	n := New("topo")
	a, b := n.AddInput("a"), n.AddInput("b")
	g1 := n.AddGate("AND2", logic.TTAnd2, a, b)
	g2 := n.AddGate("OR2", logic.TTOr2, g1, b)
	n.AddOutput("y", g2)
	order, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, node := range n.Nodes() {
		if node.Kind == KindDFF {
			continue
		}
		for _, f := range node.Fanins {
			if pos[f] > pos[node.ID] {
				t.Fatalf("node %d ordered before its fanin %d", node.ID, f)
			}
		}
	}
}

func TestSimulatorCombinational(t *testing.T) {
	n := New("fa")
	a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("cin")
	sum := n.AddGate("XOR3", logic.TTXor3, a, b, c)
	carry := n.AddGate("MAJ3", logic.TTMaj3, a, b, c)
	n.AddOutput("sum", sum)
	n.AddOutput("cout", carry)
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 8; row++ {
		in := map[string]bool{"a": row&1 == 1, "b": row>>1&1 == 1, "cin": row>>2&1 == 1}
		out := sim.Step(in)
		total := 0
		for _, v := range in {
			if v {
				total++
			}
		}
		if out["sum"] != (total%2 == 1) || out["cout"] != (total >= 2) {
			t.Fatalf("full adder wrong for %v: %v", in, out)
		}
	}
}

func TestSimulatorSequential(t *testing.T) {
	n := buildXorFF()
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	// q accumulates parity of the input stream; out shows q before the
	// edge.
	seq := []bool{true, true, false, true}
	parity := false
	for i, a := range seq {
		out := sim.Step(map[string]bool{"a": a})
		if out["out"] != parity {
			t.Fatalf("cycle %d: out = %v, want %v", i, out["out"], parity)
		}
		parity = parity != a
	}
	sim.Reset()
	if out := sim.Step(map[string]bool{"a": false}); out["out"] != false {
		t.Fatal("Reset did not clear state")
	}
}

func TestEquivalentDetectsDifference(t *testing.T) {
	mk := func(xor bool) *Netlist {
		n := New("m")
		a, b := n.AddInput("a"), n.AddInput("b")
		fn := logic.TTAnd2
		if xor {
			fn = logic.TTXor2
		}
		n.AddOutput("y", n.AddGate("G", fn, a, b))
		return n
	}
	if err := Equivalent(mk(true), mk(true), 4, 4, 1); err != nil {
		t.Fatalf("identical netlists reported different: %v", err)
	}
	if err := Equivalent(mk(true), mk(false), 8, 4, 1); err == nil {
		t.Fatal("different netlists reported equivalent")
	}
}

func TestEquivalentChecksInterface(t *testing.T) {
	a := New("a")
	a.AddOutput("y", a.AddInput("x"))
	b := New("b")
	b.AddOutput("y", b.AddInput("z"))
	if err := Equivalent(a, b, 1, 1, 1); err == nil {
		t.Fatal("mismatched PI names not reported")
	}
}

func TestSweepAndCompact(t *testing.T) {
	n := New("sweep")
	a, b := n.AddInput("a"), n.AddInput("b")
	live := n.AddGate("AND2", logic.TTAnd2, a, b)
	n.AddGate("OR2", logic.TTOr2, a, b) // dead
	dead2 := n.AddGate("XOR2", logic.TTXor2, a, b)
	n.AddGate("NAND2", logic.TTNand2, dead2, b) // dead, feeds nothing
	n.AddOutput("y", live)
	if removed := n.Sweep(); removed != 3 {
		t.Fatalf("Sweep removed %d nodes, want 3", removed)
	}
	before := n.NumNodes()
	n.Compact()
	if n.NumNodes() >= before {
		t.Fatalf("Compact did not shrink: %d -> %d", before, n.NumNodes())
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate after compact: %v", err)
	}
	s := n.ComputeStats()
	if s.Gates != 1 {
		t.Fatalf("gates after sweep = %d, want 1", s.Gates)
	}
}

func TestCompactPreservesBehaviour(t *testing.T) {
	n := buildXorFF()
	ref := n.Clone()
	n.AddGate("AND2", logic.TTAnd2, n.PIs()[0], n.PIs()[0]) // dead
	n.Sweep()
	n.Compact()
	if err := Equivalent(ref, n, 8, 8, 3); err != nil {
		t.Fatalf("sweep+compact changed behaviour: %v", err)
	}
}

func TestFanouts(t *testing.T) {
	n := New("fo")
	a := n.AddInput("a")
	g1 := n.AddGate("INV", logic.VarTT(1, 0).Not(), a)
	g2 := n.AddGate("INV", logic.VarTT(1, 0).Not(), a)
	n.AddOutput("x", g1)
	n.AddOutput("y", g2)
	if got := n.FanoutCount(a); got != 2 {
		t.Fatalf("fanout(a) = %d, want 2", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := buildXorFF()
	c := n.Clone()
	c.SetFanin(c.POs()[0], 0, c.PIs()[0])
	if n.Node(n.POs()[0]).Fanins[0] == n.PIs()[0] {
		t.Fatal("Clone shares fanin storage")
	}
}

func TestPortNames(t *testing.T) {
	n := buildXorFF()
	pis, pos := n.PortNames()
	if len(pis) != 1 || pis[0] != "a" || len(pos) != 1 || pos[0] != "out" {
		t.Fatalf("ports = %v %v", pis, pos)
	}
}

func TestStatsLevels(t *testing.T) {
	n := New("lv")
	a := n.AddInput("a")
	g := a
	for i := 0; i < 5; i++ {
		g = n.AddGate("INV", logic.VarTT(1, 0).Not(), g)
	}
	n.AddOutput("y", g)
	if s := n.ComputeStats(); s.Levels != 5 {
		t.Fatalf("levels = %d, want 5", s.Levels)
	}
}

func TestSweepIdempotent(t *testing.T) {
	n := buildXorFF()
	n.AddGate("AND2", logic.TTAnd2, n.PIs()[0], n.PIs()[0]) // dead
	first := n.Sweep()
	if first == 0 {
		t.Fatal("nothing swept")
	}
	if second := n.Sweep(); second != 0 {
		t.Fatalf("second sweep removed %d more nodes", second)
	}
}

func TestCompactIdempotent(t *testing.T) {
	n := buildXorFF()
	n.AddGate("OR2", logic.TTOr2, n.PIs()[0], n.PIs()[0])
	n.Sweep()
	n.Compact()
	count := n.NumNodes()
	n.Compact()
	if n.NumNodes() != count {
		t.Fatalf("second compact changed node count %d -> %d", count, n.NumNodes())
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFanoutsConsistentAfterMutation(t *testing.T) {
	n := New("fm")
	a, b := n.AddInput("a"), n.AddInput("b")
	g := n.AddGate("AND2", logic.TTAnd2, a, a)
	n.AddOutput("y", g)
	if got := n.FanoutCount(a); got != 2 {
		t.Fatalf("fanout(a) = %d", got)
	}
	n.SetFanin(g, 1, b)
	if n.FanoutCount(a) != 1 || n.FanoutCount(b) != 1 {
		t.Fatal("fanout cache stale after SetFanin")
	}
}

func TestSimulatorEvalWithoutClocking(t *testing.T) {
	n := buildXorFF()
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	// Eval propagates but does not clock: repeated Eval with the same
	// inputs returns identical values and leaves FF state untouched.
	v1 := append([]bool(nil), sim.Eval(map[string]bool{"a": true})...)
	v2 := sim.Eval(map[string]bool{"a": true})
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("Eval not idempotent")
		}
	}
	out := sim.Step(map[string]bool{"a": true})
	if out["out"] != false {
		t.Fatal("Eval leaked a clock edge")
	}
}
