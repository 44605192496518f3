package core

import (
	"slices"
	"sync"
)

// gate is a counting semaphore of n slots that hands a freed slot to
// the heaviest waiter, first come first served among equal weights.
// RunMatrix lanes wait on it weighted by the work they carry, so a core
// that frees up late in a matrix goes to the longest anneal left rather
// than to whichever lane happened to queue first.
type gate struct {
	mu      sync.Mutex
	free    int
	waiters []gateWaiter // in arrival order
}

type gateWaiter struct {
	weight float64
	ready  chan struct{}
}

func newGate(n int) *gate { return &gate{free: n} }

// acquire blocks until the caller holds a slot.
func (g *gate) acquire(weight float64) {
	g.mu.Lock()
	if g.free > 0 {
		g.free--
		g.mu.Unlock()
		return
	}
	ready := make(chan struct{})
	g.waiters = append(g.waiters, gateWaiter{weight, ready})
	g.mu.Unlock()
	<-ready
}

// release hands the caller's slot to the heaviest waiter, or returns it
// to the free count when nobody waits.
func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.waiters) == 0 {
		g.free++
		return
	}
	best := 0
	for i, w := range g.waiters {
		if w.weight > g.waiters[best].weight {
			best = i
		}
	}
	close(g.waiters[best].ready)
	g.waiters = slices.Delete(g.waiters, best, best+1)
}
