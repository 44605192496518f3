package route

import (
	"container/heap"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// refHeap is the former container/heap frontier, kept as the reference
// implementation for the pq regression test.
type refHeap []pqItem

func (q refHeap) Len() int            { return len(q) }
func (q refHeap) Less(i, j int) bool  { return q[i].f < q[j].f }
func (q refHeap) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refHeap) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refHeap) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestPQMatchesContainerHeap: the hand-rolled frontier must pop items
// in exactly the order container/heap would, including tie-breaks —
// that is the invariant that keeps routing results unchanged by the
// boxing-free rewrite. Keys are quantized so ties are frequent.
func TestPQMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		var got pq
		var want refHeap
		n := 1 + rng.Intn(200)
		seed := make([]pqItem, n)
		for i := range seed {
			f := float64(rng.Intn(20)) // quantized: many equal keys
			seed[i] = pqItem{f: f, cell: int32(i), gi: int32(trial)}
		}
		got = append(got, seed...)
		want = append(want, seed...)
		got.init()
		heap.Init(&want)
		// Interleave pushes and pops.
		for len(want) > 0 {
			if rng.Intn(3) == 0 {
				f := float64(rng.Intn(20))
				it := pqItem{f: f, cell: int32(rng.Intn(100)), gi: -1}
				got.push(it)
				heap.Push(&want, it)
			}
			g := got.pop()
			w := heap.Pop(&want).(pqItem)
			if g != w {
				t.Fatalf("trial %d: pop diverged: got %+v, want %+v", trial, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: custom heap retained %d items", trial, len(got))
		}
	}
}

// TestRouteDeterministicAcrossRuns: routing the same placement twice
// must produce identical results — the end-to-end regression for the
// pq rewrite.
func TestRouteDeterministicAcrossRuns(t *testing.T) {
	prob := prepPlacement(t, src)
	a, err := Route(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Route(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical routing inputs produced different results")
	}
}

// testFaults is a closure-backed FaultModel.
type testFaults struct {
	dead func(horizontal bool, xn, yn float64) bool
	via  func(xn, yn float64) bool
}

func (f testFaults) DeadTrack(horizontal bool, xn, yn float64) bool {
	if f.dead == nil {
		return false
	}
	return f.dead(horizontal, xn, yn)
}

func (f testFaults) ViaFault(xn, yn float64) bool {
	if f.via == nil {
		return false
	}
	return f.via(xn, yn)
}

// TestDeadTracksAvoided: with a mid-die band of dead vertical tracks
// (leaving a corridor on the right), routing must complete without
// ever using a dead edge.
func TestDeadTracksAvoided(t *testing.T) {
	dead := func(horizontal bool, xn, yn float64) bool {
		return !horizontal && yn > 0.4 && yn < 0.6 && xn < 0.8
	}
	prob := prepPlacement(t, src)
	res, err := Route(prob, Options{Faults: testFaults{dead: dead}})
	if err != nil {
		t.Fatal(err)
	}
	fx := 1 / float64(res.CellsX)
	fy := 1 / float64(res.CellsY)
	for ni, edges := range res.netEdges {
		for _, e := range edges {
			var xn, yn float64
			if e.horizontal {
				x := int(e.idx) % (res.CellsX - 1)
				y := int(e.idx) / (res.CellsX - 1)
				xn, yn = (float64(x)+1.0)*fx, (float64(y)+0.5)*fy
			} else {
				x := int(e.idx) % res.CellsX
				y := int(e.idx) / res.CellsX
				xn, yn = (float64(x)+0.5)*fx, (float64(y)+1.0)*fy
			}
			if dead(e.horizontal, xn, yn) {
				t.Fatalf("net %d routed through dead edge (h=%v idx=%d)", ni, e.horizontal, e.idx)
			}
		}
	}
	if res.Total <= 0 {
		t.Fatal("zero wirelength")
	}
}

// TestViaFaultPenaltyRaisesCost: penalizing the die center should not
// break routing, and the result must remain deterministic.
func TestViaFaultPenaltyRaisesCost(t *testing.T) {
	via := func(xn, yn float64) bool {
		return xn > 0.3 && xn < 0.7 && yn > 0.3 && yn < 0.7
	}
	prob := prepPlacement(t, src)
	res, err := Route(prob, Options{Faults: testFaults{via: via}})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Route(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The penalized route detours, so total wirelength can only grow.
	if res.Total < clean.Total {
		t.Fatalf("via penalties shortened wirelength: %.1f < %.1f", res.Total, clean.Total)
	}
}

// TestUnroutableReturnsRouteError: an all-dead fabric must fail with a
// structured *RouteError naming the failing net.
func TestUnroutableReturnsRouteError(t *testing.T) {
	prob := prepPlacement(t, src)
	_, err := Route(prob, Options{Faults: testFaults{
		dead: func(bool, float64, float64) bool { return true },
	}})
	if err == nil {
		t.Fatal("expected routing failure on all-dead fabric")
	}
	var re *RouteError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not a *RouteError: %v", err, err)
	}
	if re.Net < 0 || re.Net >= len(prob.Nets) {
		t.Fatalf("RouteError.Net = %d out of range", re.Net)
	}
	if re.Iteration < 1 {
		t.Fatalf("RouteError.Iteration = %d, want >= 1", re.Iteration)
	}
	if re.Err == nil || re.Unwrap() == nil {
		t.Fatal("RouteError carries no cause")
	}
}

// TestRouteCancellation: a cancelled context aborts at the next
// negotiation-iteration boundary.
func TestRouteCancellation(t *testing.T) {
	prob := prepPlacement(t, src)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Route(prob, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Route under cancelled ctx returned %v, want context.Canceled", err)
	}
}

// TestCapacityScale widens the derived capacity multiplicatively.
func TestCapacityScale(t *testing.T) {
	prob := prepPlacement(t, src)
	base, err := Route(prob, Options{Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Route(prob, Options{Capacity: 10, CapacityScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if base.Capacity() != 10 || wide.Capacity() != 20 {
		t.Fatalf("capacities %d and %d, want 10 and 20", base.Capacity(), wide.Capacity())
	}
	if wide.Overflow > base.Overflow {
		t.Fatalf("doubling capacity increased overflow: %d -> %d", base.Overflow, wide.Overflow)
	}
}
