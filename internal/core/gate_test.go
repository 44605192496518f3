package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateBoundsHolders: however many lanes contend, at most n hold a
// slot at once, and every lane eventually gets one.
func TestGateBoundsHolders(t *testing.T) {
	const n = 3
	g := newGate(n)
	var holders, peak, done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.acquire(float64(rand.Intn(4)))
			h := holders.Add(1)
			for p := peak.Load(); h > p && !peak.CompareAndSwap(p, h); p = peak.Load() {
			}
			time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
			holders.Add(-1)
			done.Add(1)
			g.release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > n {
		t.Fatalf("%d lanes held a slot at once, gate has %d", p, n)
	}
	if done.Load() != 40 {
		t.Fatalf("%d of 40 lanes ran", done.Load())
	}
	if g.free != n || len(g.waiters) != 0 {
		t.Fatalf("drained gate has %d free slots and %d waiters, want %d and 0", g.free, len(g.waiters), n)
	}
}

// TestGateHeaviestWaiterFirst: a freed slot goes to the heaviest
// waiter, and equal weights — +Inf included — go in arrival order.
func TestGateHeaviestWaiterFirst(t *testing.T) {
	g := newGate(1)
	g.acquire(0)
	weights := []float64{1, math.Inf(1), 5, math.Inf(1), 5, 1}
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	for i, w := range weights {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.acquire(w)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			g.release()
		}()
		// Queue the waiters one at a time, so arrival order is i.
		for queued := 0; queued <= i; {
			time.Sleep(50 * time.Microsecond)
			g.mu.Lock()
			queued = len(g.waiters)
			g.mu.Unlock()
		}
	}
	g.release()
	wg.Wait()
	if want := []int{1, 3, 2, 4, 0, 5}; !reflect.DeepEqual(order, want) {
		t.Fatalf("waiters ran in order %v, want %v", order, want)
	}
}

// TestGateReleaseWithoutWaiterFreesSlot: a release nobody waits for
// returns the slot, so the next acquire does not block.
func TestGateReleaseWithoutWaiterFreesSlot(t *testing.T) {
	g := newGate(1)
	g.acquire(7)
	g.release()
	if g.free != 1 {
		t.Fatalf("free slots after an unwaited release = %d, want 1", g.free)
	}
	acquired := make(chan struct{})
	go func() {
		g.acquire(0)
		close(acquired)
	}()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("acquire blocked on a gate with a free slot")
	}
	g.release()
}
