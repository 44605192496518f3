package route

import (
	"reflect"
	"testing"
)

// tightOpts forces congestion so the negotiation actually iterates and
// the incremental overflow bookkeeping sees boundary crossings in both
// directions.
func tightOpts() Options {
	return Options{Capacity: 2}
}

// TestIncrementalOverflowMatchesScan cross-checks, at every
// negotiation iteration, the running totalOver counter against the
// full usage-array scan, and every net's O(1) overflow flag against
// the edge-list scan it replaced.
func TestIncrementalOverflowMatchesScan(t *testing.T) {
	audits := 0
	overflowAudit = func(r *router) {
		audits++
		if got, want := r.totalOver, r.totalOverflow(); got != want {
			t.Errorf("iteration %d: incremental overflow %d, scan %d", audits, got, want)
		}
		for ni := range r.netEdges {
			scanned := false
			for _, e := range r.netEdges[ni] {
				use := r.vUse
				if e.horizontal {
					use = r.hUse
				}
				if int(use[e.idx]) > r.opts.Capacity {
					scanned = true
					break
				}
			}
			if got := r.st.netOverCnt[ni] > 0; got != scanned {
				t.Errorf("iteration %d: net %d overflow flag %v, edge scan %v", audits, ni, got, scanned)
			}
			if r.st.netOverCnt[ni] < 0 {
				t.Errorf("iteration %d: net %d overflow count went negative", audits, ni)
			}
		}
	}
	defer func() { overflowAudit = nil }()

	prob := prepPlacement(t, src)
	if _, err := Route(prob, tightOpts()); err != nil {
		t.Fatal(err)
	}
	if audits < 2 {
		t.Fatalf("audit ran %d times; want a congested multi-iteration run", audits)
	}
}

// resultKey flattens every externally visible field of a Result for
// bit-identity comparison.
type resultKey struct {
	CellsX, CellsY int
	NetLength      []float64
	Total          float64
	SinkDist       [][]float64
	Overflow       int
	MaxUtilization float64
	Iterations     int
	netEdges       [][]edgeRef
	hEdges, vEdges []int16
}

func keyOf(r *Result) resultKey {
	return resultKey{
		CellsX: r.CellsX, CellsY: r.CellsY,
		NetLength: r.NetLength, Total: r.Total,
		SinkDist: r.SinkDist, Overflow: r.Overflow,
		MaxUtilization: r.MaxUtilization, Iterations: r.Iterations,
		netEdges: r.netEdges, hEdges: r.hEdges, vEdges: r.vEdges,
	}
}

// TestPooledRoutingBitIdentical: runs sharing a State pool must be bit
// for bit the results of cold runs — including after the pool's state
// has been dirtied by a differently-shaped and a congested run.
func TestPooledRoutingBitIdentical(t *testing.T) {
	prob := prepPlacement(t, src)
	cold, err := Route(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldTight, err := Route(prob, tightOpts())
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPool()
	withPool := Options{Pool: pool}
	first, err := Route(prob, withPool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keyOf(first), keyOf(cold)) {
		t.Fatal("first pooled run differs from cold run")
	}
	// Dirty the pooled state: a congested run (history, incidence
	// lists, overflow counters all nonzero) and a different grid shape.
	if _, err := Route(prob, Options{Pool: pool, Capacity: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Route(prob, Options{Pool: pool, CellsScale: 2}); err != nil {
		t.Fatal(err)
	}
	again, err := Route(prob, withPool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keyOf(again), keyOf(cold)) {
		t.Fatal("pooled run after reuse differs from cold run")
	}
	tightAgain, err := Route(prob, Options{Pool: pool, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keyOf(tightAgain), keyOf(coldTight)) {
		t.Fatal("pooled congested run differs from cold congested run")
	}
}

// TestStateEpochGuard: a state carried past the epoch guard must reset
// its stamp arrays and keep producing correct results.
func TestStateEpochGuard(t *testing.T) {
	prob := prepPlacement(t, src)
	cold, err := Route(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool()
	if _, err := Route(prob, Options{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	// Push the pooled state's epochs past the guard by hand.
	st := pool.get()
	if st.nx == 0 {
		t.Fatal("expected a used state back from the pool")
	}
	st.epoch = epochGuard + 1
	st.treeEpoch = epochGuard + 1
	pool.put(st)
	res, err := Route(prob, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keyOf(res), keyOf(cold)) {
		t.Fatal("post-guard pooled run differs from cold run")
	}
}
