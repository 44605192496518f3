// Package route implements the ASIC-style global routing stage of the
// paper's flow: the VPGA routes on upper metal layers directly above
// the PLB array. The router is a PathFinder-style negotiated-congestion
// maze router over a uniform grid with per-edge capacities, building a
// routing tree per net and extracting wirelength and Elmore RC
// parasitics for post-layout timing.
package route

import (
	"context"
	"fmt"
	"math"
	"slices"

	"vpga/internal/obs"
	"vpga/internal/place"
)

// FaultModel describes fabric routing defects to the router without
// coupling it to a particular defect representation (defect.Map
// implements it). Coordinates are normalized to [0,1] over the die.
type FaultModel interface {
	// DeadTrack reports an open-circuit track bundle crossing the given
	// position in the given direction; such edges are unusable.
	DeadTrack(horizontal bool, xn, yn float64) bool
	// ViaFault reports unreliable via formation at the given position;
	// edges incident to it are penalized so routes prefer detours.
	ViaFault(xn, yn float64) bool
}

// Options tunes the router.
type Options struct {
	// Capacity is the track count per grid edge; zero derives it from
	// the bin width (at least 24).
	Capacity int
	// CapacityScale multiplies the (derived or explicit) per-edge
	// capacity; zero means 1.0. The repair ladder widens channels by
	// raising it.
	CapacityScale float64
	// CellsScale > 1 coarsens the routing grid by that factor: fewer,
	// physically wider channels. Under a fault model a coarser grid
	// samples dead tracks at different normalized coordinates, so the
	// repair ladder uses it to dissolve topological cuts that no
	// reroute can cross.
	CellsScale float64
	// Faults injects fabric routing defects: dead tracks are excluded
	// from the search graph, via-faulted cells penalize their incident
	// edges. Nil means a clean fabric.
	Faults FaultModel
	// Pool, when set, checks the router's working arrays out of a
	// shared pool instead of allocating them per run (see State).
	// Pooled and cold runs are bit-identical; nil allocates per run.
	Pool *Pool
	// Ctx cancels a running Route at negotiation-iteration boundaries;
	// nil never cancels. A run that completes without cancellation is
	// bit-identical to one routed without a context.
	Ctx context.Context
	// Trace, when set, records the per-iteration overflow trajectory
	// and the snapshotted best iteration. Observation only: it is never
	// consulted by the negotiation, and a nil trace costs one nil check
	// per iteration.
	Trace *obs.RouteTrace
}

// RouteError identifies the failing net when routing cannot complete,
// so repair loops can key off structured fields instead of parsing
// error strings.
type RouteError struct {
	// Net is the placement net index that could not be routed.
	Net int
	// Iteration is the 1-based negotiation iteration at failure.
	Iteration int
	// Overflow is the total edge-capacity overflow at failure time.
	Overflow int
	Err      error
}

func (e *RouteError) Error() string {
	return fmt.Sprintf("route: net %d unroutable at iteration %d (overflow %d): %v",
		e.Net, e.Iteration, e.Overflow, e.Err)
}

func (e *RouteError) Unwrap() error { return e.Err }

// maxIters bounds rip-up-and-reroute rounds.
const maxIters = 12

// wireModel is the RC model behind WireRC and NetCap: wire resistance
// (kΩ) and capacitance (fF) per placement distance unit, the delay of
// an optimally repeated wire (ps per unit) and the load cap (fF), the
// most wire capacitance a net presents to its source gate. A zero
// repeated delay or load cap disables it.
type wireModel struct {
	rPerUnit, cPerUnit, repeatedDelayPerUnit, maxLoadFF float64
}

// defaultWire is the one wire model every design routes under: a
// scaled mid-layer metal wire of 0.08 kΩ and 0.20 fF per unit. The
// repeated-wire delay of 2.4 ps per unit is derived from the BUF cell
// (segment length L* = sqrt(2·Rb·Cb/(r·c)) ≈ 17 units at ≈ 42 ps per
// segment); long-wire Elmore delay is capped at that linear model,
// standing in for the repeater insertion the paper's physical
// synthesis performs. The repeater nearest a net's source isolates the
// rest of the tree, so the source gate sees at most 30 fF. It is a
// variable only because Go has no struct constants; nothing writes it.
var defaultWire = wireModel{rPerUnit: 0.08, cPerUnit: 0.20, repeatedDelayPerUnit: 2.4, maxLoadFF: 30}

// Result is a routed design.
type Result struct {
	CellsX, CellsY int
	BinW, BinH     float64
	// Wirelength per net in placement units, and in total.
	NetLength []float64
	Total     float64
	// SinkDist[net][k] is the tree path length from the driver to sink
	// k (ordering matches place.Net.Objs[1:]).
	SinkDist [][]float64
	// Overflow is the number of edge-capacity violations remaining.
	Overflow int
	// MaxUtilization is the peak edge usage / capacity.
	MaxUtilization float64
	// Iterations actually run.
	Iterations int

	// The channel width and wire model the design was routed (or
	// decoded) with.
	capacity int
	wire     wireModel
	// Retained for detailed routing (track assignment).
	netEdges       [][]edgeRef
	hEdges, vEdges []int16
}

// Capacity returns the per-edge track capacity the router actually
// used (the derived or explicit channel width, after CapacityScale).
func (r *Result) Capacity() int {
	return r.capacity
}

// WireRC returns the wire delay (ps) and load capacitance (fF) seen by
// net n's driver toward sink k. Short wires follow the lumped Elmore
// model delay = r·L·(c·L/2); past the repeater crossover the delay is
// capped at the linear optimally-repeated-wire model (see
// defaultWire).
func (r *Result) WireRC(net, sink int) (delayPS, capFF float64) {
	L := r.SinkDist[net][sink]
	elmore := r.wire.rPerUnit * L * (r.wire.cPerUnit * L / 2)
	if rep := r.wire.repeatedDelayPerUnit; rep > 0 {
		if lin := rep * L; lin < elmore {
			elmore = lin
		}
	}
	return elmore, r.NetCap(net)
}

// NetCap returns the wire capacitance net n presents to its driver:
// the tree's total capacitance, bounded by wire.maxLoadFF when repeaters
// isolate the driver from the far tree.
func (r *Result) NetCap(net int) float64 {
	c := r.wire.cPerUnit * r.NetLength[net]
	if r.wire.maxLoadFF > 0 && c > r.wire.maxLoadFF {
		return r.wire.maxLoadFF
	}
	return c
}

type point struct{ x, y int16 }

// MaxCapacity is the widest channel, in tracks per grid edge, that the
// router derives and that a routing sweep may ask for: track
// assignment keeps a capacity-bit occupancy set per edge.
const MaxCapacity = 4096

// Route routes every placement net.
func Route(prob *place.Problem, opts Options) (*Result, error) {
	// The grid is about one bin per PLB pitch.
	nx := clampInt(int(math.Ceil(prob.W/4)), 4, 512)
	ny := clampInt(int(math.Ceil(prob.H/4)), 4, 512)
	if opts.CellsScale > 1 {
		nx = clampInt(int(float64(nx)/opts.CellsScale), 2, 512)
		ny = clampInt(int(float64(ny)/opts.CellsScale), 2, 512)
	}
	if opts.Capacity == 0 {
		// Track capacity scales with the bin span: roughly 20 tracks of
		// upper-layer metal per placement unit of bin width (the VPGA
		// routes ASIC-style across several metal layers above the
		// array).
		binW := prob.W / float64(nx)
		opts.Capacity = clampInt(int(binW*20), 24, MaxCapacity)
	}
	if opts.CapacityScale > 0 {
		opts.Capacity = maxI(1, int(float64(opts.Capacity)*opts.CapacityScale))
	}
	r := &router{prob: prob, opts: opts, nx: nx, ny: ny}
	return r.run()
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

type router struct {
	prob *place.Problem
	opts Options

	nx, ny int
	binW   float64
	binH   float64

	// st holds the working arrays (usage, history, incidence, A*
	// scratch, tree buffers), possibly checked out from a Pool. hUse
	// and vUse alias st's arrays for the hot paths: horizontal edges
	// (x,y)→(x+1,y) number (nx-1)*ny, vertical edges (x,y)→(x,y+1)
	// number nx*(ny-1).
	st         *State
	hUse, vUse []int16

	netEdges [][]edgeRef // edges per net for rip-up

	// totalOver mirrors the capacity overflow summed over all edges,
	// maintained incrementally by addEdge/removeEdge so the
	// negotiation loop never rescans the usage arrays. The
	// totalOverflow() scan remains as the test oracle.
	totalOver int

	// Fabric faults, precomputed per edge from opts.Faults: dead edges
	// are excluded from the search graph, penalized edges carry a fixed
	// detour surcharge (via faults). Nil slices mean a clean fabric.
	hDead, vDead []bool
	hPen, vPen   []float32
}

type edgeRef struct {
	horizontal bool
	idx        int32
}

func (r *router) hIdx(x, y int) int { return y*(r.nx-1) + x }
func (r *router) vIdx(x, y int) int { return y*r.nx + x }

func (r *router) binOf(oi int32) point {
	o := &r.prob.Objs[oi]
	x := int16(clampInt(int(o.X/r.binW), 0, r.nx-1))
	y := int16(clampInt(int(o.Y/r.binH), 0, r.ny-1))
	return point{x, y}
}

func (r *router) run() (*Result, error) {
	r.binW = r.prob.W / float64(r.nx)
	r.binH = r.prob.H / float64(r.ny)
	nets := r.prob.Nets
	r.st = r.opts.Pool.get()
	defer func() { r.opts.Pool.put(r.st) }()
	r.st.prepare(r.nx, r.ny, len(nets))
	r.hUse, r.vUse = r.st.hUse, r.st.vUse
	r.netEdges = make([][]edgeRef, len(nets))
	r.applyFaults()
	r.refreshBase()

	presentFactor := 0.5
	iters := 0
	// Negotiation can oscillate: a later rip-up round may end worse
	// than an earlier one. Keep the lowest-overflow iteration and
	// restore it at the end, so more iterations never hurt. Snapshots
	// are cheap: usage arrays are copied, per-net edge slices are
	// rebuilt (not mutated) on reroute, so their headers are safely
	// shared.
	bestOver := -1
	bestIter := 0
	var bestHUse, bestVUse []int16
	var bestNetEdges [][]edgeRef
	snapshot := func(over int) {
		bestOver = over
		bestIter = iters
		bestHUse = append(bestHUse[:0], r.hUse...)
		bestVUse = append(bestVUse[:0], r.vUse...)
		bestNetEdges = append(bestNetEdges[:0], r.netEdges...)
	}
	for iter := 0; iter < maxIters; iter++ {
		// Cancellation is honored only at iteration boundaries, so a run
		// that completes is bit-identical with or without a context.
		if r.opts.Ctx != nil {
			if err := r.opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("route: cancelled at iteration %d: %w", iter, err)
			}
		}
		iters = iter + 1
		rerouted := 0
		for ni := range nets {
			// The overflow check is deliberately lazy — evaluated when
			// the loop reaches the net, after earlier nets rerouted —
			// so a net pushed into overflow mid-iteration is rerouted
			// the same round. netOverCnt makes the check O(1).
			if iter > 0 && r.st.netOverCnt[ni] == 0 {
				continue
			}
			r.ripup(ni)
			if err := r.routeNet(ni, presentFactor); err != nil {
				return nil, &RouteError{Net: ni, Iteration: iters, Overflow: r.totalOver, Err: err}
			}
			rerouted++
		}
		if overflowAudit != nil {
			overflowAudit(r)
		}
		over := r.totalOver
		r.opts.Trace.Iteration(over)
		if bestOver < 0 || over < bestOver {
			snapshot(over)
		}
		if over == 0 {
			break
		}
		// Accumulate history on congested edges.
		for i, u := range r.hUse {
			if int(u) > r.opts.Capacity {
				r.st.hHist[i] += float32(int(u) - r.opts.Capacity)
			}
		}
		for i, u := range r.vUse {
			if int(u) > r.opts.Capacity {
				r.st.vHist[i] += float32(int(u) - r.opts.Capacity)
			}
		}
		r.refreshBase()
		presentFactor *= 1.6
		if rerouted == 0 {
			break
		}
	}
	if bestOver >= 0 && bestOver < r.totalOver {
		// The incidence lists and per-net overflow counters are not
		// restored: nothing reads them after the loop.
		copy(r.hUse, bestHUse)
		copy(r.vUse, bestVUse)
		copy(r.netEdges, bestNetEdges)
		r.totalOver = bestOver
	}
	r.opts.Trace.Best(bestIter)
	return r.finish(iters)
}

// overflowAudit, when set by a test, runs at every negotiation
// iteration boundary to cross-check the incrementally maintained
// overflow state against full scans. Never set outside tests.
var overflowAudit func(*router)

// fallbackAudit, when set by a test, runs each time a windowed search
// fails and routeNet retries over the full grid. Never set outside
// tests.
var fallbackAudit func()

// totalOverflow recomputes the capacity overflow by scanning both
// usage arrays: the oracle the incrementally-maintained totalOver is
// tested against. The negotiation loop itself never calls it.
func (r *router) totalOverflow() int {
	over := 0
	for _, u := range r.hUse {
		if int(u) > r.opts.Capacity {
			over += int(u) - r.opts.Capacity
		}
	}
	for _, u := range r.vUse {
		if int(u) > r.opts.Capacity {
			over += int(u) - r.opts.Capacity
		}
	}
	return over
}

// addEdge commits one edge of net ni's tree: usage, the edge's net
// incidence list, the running total overflow, and — when the edge
// crosses the capacity boundary — the per-net overflowed-ref counters
// of every net holding it.
func (r *router) addEdge(ni int32, e edgeRef) {
	use, on := r.vUse, r.st.vOn
	if e.horizontal {
		use, on = r.hUse, r.st.hOn
	}
	on[e.idx] = append(on[e.idx], ni)
	u := use[e.idx] + 1
	use[e.idx] = u
	if int(u) > r.opts.Capacity {
		r.totalOver++
		if int(u) == r.opts.Capacity+1 {
			for _, nj := range on[e.idx] {
				r.st.netOverCnt[nj]++
			}
		} else {
			r.st.netOverCnt[ni]++
		}
	}
}

// removeEdge is addEdge's inverse, called from ripup.
func (r *router) removeEdge(ni int32, e edgeRef) {
	use, on := r.vUse, r.st.vOn
	if e.horizontal {
		use, on = r.hUse, r.st.hOn
	}
	u := use[e.idx]
	if int(u) > r.opts.Capacity {
		r.totalOver--
		if int(u) == r.opts.Capacity+1 {
			for _, nj := range on[e.idx] {
				r.st.netOverCnt[nj]--
			}
		} else {
			r.st.netOverCnt[ni]--
		}
	}
	use[e.idx] = u - 1
	// Unordered remove of ni from the incidence list; each edge holds
	// a net at most once, and list order only sequences counter
	// updates, never their values.
	list := on[e.idx]
	for k, nj := range list {
		if nj == ni {
			list[k] = list[len(list)-1]
			on[e.idx] = list[:len(list)-1]
			break
		}
	}
}

func (r *router) ripup(ni int) {
	for _, e := range r.netEdges[ni] {
		r.removeEdge(int32(ni), e)
	}
	r.netEdges[ni] = nil
}

// viaFaultPenalty is the surcharge on edges incident to a via-faulted
// tile: several times the unit edge cost, so routes detour around the
// tile whenever a modest detour exists, without making it unreachable.
const viaFaultPenalty = 8.0

// applyFaults precomputes per-edge fault state from opts.Faults. Each
// edge is sampled at its midpoint in normalized fabric coordinates;
// via faults are sampled at tile centers and charged to all incident
// edges.
func (r *router) applyFaults() {
	f := r.opts.Faults
	if f == nil {
		return
	}
	r.hDead = make([]bool, len(r.hUse))
	r.vDead = make([]bool, len(r.vUse))
	r.hPen = make([]float32, len(r.hUse))
	r.vPen = make([]float32, len(r.vUse))
	fx := 1 / float64(r.nx)
	fy := 1 / float64(r.ny)
	for y := 0; y < r.ny; y++ {
		for x := 0; x < r.nx-1; x++ {
			r.hDead[r.hIdx(x, y)] = f.DeadTrack(true, (float64(x)+1.0)*fx, (float64(y)+0.5)*fy)
		}
	}
	for y := 0; y < r.ny-1; y++ {
		for x := 0; x < r.nx; x++ {
			r.vDead[r.vIdx(x, y)] = f.DeadTrack(false, (float64(x)+0.5)*fx, (float64(y)+1.0)*fy)
		}
	}
	for y := 0; y < r.ny; y++ {
		for x := 0; x < r.nx; x++ {
			if !f.ViaFault((float64(x)+0.5)*fx, (float64(y)+0.5)*fy) {
				continue
			}
			if x > 0 {
				r.hPen[r.hIdx(x-1, y)] = viaFaultPenalty
			}
			if x < r.nx-1 {
				r.hPen[r.hIdx(x, y)] = viaFaultPenalty
			}
			if y > 0 {
				r.vPen[r.vIdx(x, y-1)] = viaFaultPenalty
			}
			if y < r.ny-1 {
				r.vPen[r.vIdx(x, y)] = viaFaultPenalty
			}
		}
	}
}

// refreshBase recomputes every edge's congestion-free cost, 1 +
// hist/2 + via penalty. Penalties change only in applyFaults and
// history only between negotiation iterations, so it runs after each.
// Routes depend on every bit of an edge cost, and Go may fuse
// multiply-adds on some targets, so this expression and relax's keep
// their operand order and tree.
func (r *router) refreshBase() {
	fill := func(base []float64, hist, pen []float32) {
		for i, h := range hist {
			var p float32
			if pen != nil {
				p = pen[i]
			}
			base[i] = 1.0 + float64(h)*0.5 + float64(p)
		}
	}
	fill(r.st.hBase, r.st.hHist, r.hPen)
	fill(r.st.vBase, r.st.vHist, r.vPen)
}

// pq is the A* frontier: a binary min-heap on f. Routes depend on how
// equal-f items break ties, so it pops in exactly container/heap's
// order (TestPQMatchesContainerHeap): init sifts down as heap.Init
// does, push sifts up with heap.Push's strict <, and pop leaves the
// layout heap.Pop leaves. The backing slice is owned by the router's
// scratch state and reused across searches, so steady-state routing
// allocates nothing per call.
type pq []pqItem

// pqItem is a frontier entry, 16 bytes. Its g sits in the search's
// push log at index gi. gScore[cell] is not a substitute: a later,
// smaller g for the same cell can round to the same f, so the older
// item may pop first, and it must relax its neighbors with its own g.
type pqItem struct {
	f    float64
	cell int32
	gi   int32
}

// init establishes the heap invariant over the current contents.
func (q *pq) init() {
	n := len(*q)
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i, n)
	}
}

// push sifts a hole up from the new last slot while the item is
// strictly smaller than the hole's parent, as heap.Push's swaps do.
func (q *pq) push(it pqItem) {
	s := append(*q, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(it.f < s[p].f) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = it
	*q = s
}

// pop removes the minimum. heap.Pop moves the last item x to the root
// and swaps it down the min-child path (the right child only when
// strictly smaller) until no child is smaller. Keys never decrease
// along that path, so the same slot is found by moving the hole down
// the whole path and sifting x back up while its parent is not
// smaller. A +Inf sentinel in the vacated last slot lets a right child
// skip its bounds check, and since keys are non-negative finite
// floats, their bit patterns order like the keys, so the sign of their
// difference picks the child without a branch.
func (q *pq) pop() pqItem {
	s := *q
	top := s[0]
	n := len(s) - 1
	x := s[n]
	s[n].f = math.Inf(1)
	i := 0
	for l := 1; l < n; l = 2*i + 1 {
		d := int64(math.Float64bits(s[l+1].f)) - int64(math.Float64bits(s[l].f))
		c := l + int(uint64(d)>>63) // the right child if strictly smaller
		s[i] = s[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if s[p].f < x.f {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
	*q = s[:n]
	return top
}

func (q *pq) down(i0, n int) {
	s := *q
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].f < s[j1].f {
			j = j2 // right child
		}
		if !(s[j].f < s[i].f) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}

// routeNet builds the net's routing tree: sinks are connected one at a
// time (nearest first) by A* from the existing tree. Tree membership
// lives in an epoch-stamped cell array beside an insertion-ordered
// member list: astar seeds its frontier and picks its window anchor
// from the ordered list, so routing is deterministic, and no per-net
// maps are built (finish derives tree adjacency from the edge list).
func (r *router) routeNet(ni int, presentFactor float64) error {
	net := &r.prob.Nets[ni]
	st := r.st
	src := r.binOf(net.Objs[0])
	st.treeEpoch++
	te := st.treeEpoch
	st.inTree[r.cellOf(src)] = te
	treeList := st.treeList[:0]
	treeList = append(treeList, src)
	var edges []edgeRef
	grow := func(p point) {
		if c := r.cellOf(p); st.inTree[c] != te {
			st.inTree[c] = te
			treeList = append(treeList, p)
		}
	}

	sinks := st.sinks[:0]
	for _, oi := range net.Objs[1:] {
		sinks = append(sinks, r.binOf(oi))
	}
	// Route nearest sinks first for better trees.
	for i := range sinks {
		best := i
		for j := i + 1; j < len(sinks); j++ {
			if manhattan(src, sinks[j]) < manhattan(src, sinks[best]) {
				best = j
			}
		}
		sinks[i], sinks[best] = sinks[best], sinks[i]
	}
	for _, sink := range sinks {
		if st.inTree[r.cellOf(sink)] == te {
			continue
		}
		// Restrict the search to a margin around the sink and its
		// nearest tree node first; fall back to the whole grid only if
		// congestion walls off the window.
		path, err := r.astar(te, treeList, sink, presentFactor, 6)
		if err != nil {
			if fallbackAudit != nil {
				fallbackAudit()
			}
			path, err = r.astar(te, treeList, sink, presentFactor, -1)
		}
		if err != nil {
			st.treeList, st.sinks = treeList[:0], sinks[:0]
			return err
		}
		// A fresh slice per reroute, grown once per path: the best-
		// iteration snapshot shares the old slice headers.
		edges = slices.Grow(edges, len(path)-1)
		for i := 0; i+1 < len(path); i++ {
			ref := r.edgeBetween(path[i], path[i+1])
			r.addEdge(int32(ni), ref)
			edges = append(edges, ref)
			grow(path[i])
			grow(path[i+1])
		}
		grow(sink)
	}
	st.treeList, st.sinks = treeList[:0], sinks[:0]
	r.netEdges[ni] = edges
	return nil
}

func (r *router) cellOf(p point) int32 {
	return int32(p.y)*int32(r.nx) + int32(p.x)
}

func manhattan(a, b point) float64 {
	return math.Abs(float64(a.x-b.x)) + math.Abs(float64(a.y-b.y))
}

func (r *router) edgeBetween(a, b point) edgeRef {
	switch {
	case a.y == b.y && b.x == a.x+1:
		return edgeRef{true, int32(r.hIdx(int(a.x), int(a.y)))}
	case a.y == b.y && b.x == a.x-1:
		return edgeRef{true, int32(r.hIdx(int(b.x), int(a.y)))}
	case a.x == b.x && b.y == a.y+1:
		return edgeRef{false, int32(r.vIdx(int(a.x), int(a.y)))}
	default:
		return edgeRef{false, int32(r.vIdx(int(a.x), int(b.y)))}
	}
}

// search is the A* scratch and the hot state of one search: epoch-
// stamped per-cell scores and parents, the frontier, the push log (the
// g of every pushed item, indexed by pqItem.gi), and what relax reads.
type search struct {
	gScore []float64
	parent []int32
	gStamp []int32
	cStamp []int32
	epoch  int32
	q      pq
	gs     []float64

	capacity      int
	presentFactor float64
	sinkX, sinkY  int
	h, v          edgeArrays
}

// edgeArrays are one direction's per-edge arrays; dead is nil on a
// clean fabric.
type edgeArrays struct {
	use  []int16
	base []float64
	dead []bool
}

// astar searches from the existing tree (all members seeded at cost 0,
// membership = inTree stamp equals te) to the sink. Scratch state
// lives in flat arrays indexed by grid cell and is invalidated
// wholesale by bumping an epoch counter, and the returned path reuses
// the state's scratch buffer (valid until the next astar call), so
// routing thousands of nets allocates nothing per call. treeList is
// the tree's membership in insertion order; iterating it keeps window
// anchoring and frontier seeding deterministic.
func (r *router) astar(te int32, treeList []point, sink point, presentFactor float64, margin int) ([]point, error) {
	st := r.st
	s := &st.search
	s.epoch++
	nx := int32(r.nx)
	// Search window: the bounding box of the sink and its nearest tree
	// node, padded by margin bins (margin < 0 disables the window).
	x0, y0, x1, y1 := 0, 0, r.nx-1, r.ny-1
	if margin >= 0 {
		best, bestD := sink, math.Inf(1)
		for _, t := range treeList {
			if d := manhattan(t, sink); d < bestD {
				best, bestD = t, d
			}
		}
		x0 = clampInt(minI(int(best.x), int(sink.x))-margin, 0, r.nx-1)
		x1 = clampInt(maxI(int(best.x), int(sink.x))+margin, 0, r.nx-1)
		y0 = clampInt(minI(int(best.y), int(sink.y))-margin, 0, r.ny-1)
		y1 = clampInt(maxI(int(best.y), int(sink.y))+margin, 0, r.ny-1)
	}
	s.q, s.gs = s.q[:0], s.gs[:0]
	for _, t := range treeList {
		if int(t.x) < x0 || int(t.x) > x1 || int(t.y) < y0 || int(t.y) > y1 {
			continue
		}
		c := r.cellOf(t)
		s.gScore[c], s.gStamp[c], s.parent[c] = 0, s.epoch, -1
		s.q = append(s.q, pqItem{f: manhattan(t, sink), cell: c, gi: int32(len(s.gs))})
		s.gs = append(s.gs, 0)
	}
	s.q.init()
	s.capacity, s.presentFactor = r.opts.Capacity, presentFactor
	s.sinkX, s.sinkY = int(sink.x), int(sink.y)
	s.h = edgeArrays{r.hUse, st.hBase, r.hDead}
	s.v = edgeArrays{r.vUse, st.vBase, r.vDead}
	sinkC := r.cellOf(sink)
	for len(s.q) > 0 {
		cur := s.q.pop()
		c := cur.cell
		if s.cStamp[c] == s.epoch {
			continue
		}
		s.cStamp[c] = s.epoch
		if c == sinkC {
			// Reconstruct to the first tree node.
			path := st.pathBuf[:0]
			for {
				path = append(path, point{int16(c % nx), int16(c / nx)})
				if st.inTree[c] == te {
					break
				}
				c = s.parent[c]
			}
			st.pathBuf = path
			return path, nil
		}
		// Every pushed cell lies in the window, so each direction checks
		// only the coordinate it moves. The edges are hIdx(x, y),
		// hIdx(x-1, y), vIdx(x, y) and vIdx(x, y-1).
		x, y, g := int(c%nx), int(c/nx), s.gs[cur.gi]
		e := y*(r.nx-1) + x
		if x < x1 {
			s.relax(c, c+1, x+1, y, g, e, &s.h)
		}
		if x > x0 {
			s.relax(c, c-1, x-1, y, g, e-1, &s.h)
		}
		if y < y1 {
			s.relax(c, c+nx, x, y+1, g, int(c), &s.v)
		}
		if y > y0 {
			s.relax(c, c-nx, x, y-1, g, int(c-nx), &s.v)
		}
	}
	return nil, fmt.Errorf("no path to sink (%d,%d)", sink.x, sink.y)
}

// relax pushes cell n at (x, y), reached from cell c at cost g across
// edge e, unless the edge is dead, n is closed, or n already has a
// cost no worse. The edge cost is its base plus the present-congestion
// term, whose max(...) is 0 while the edge has room, and base + 0 is
// exactly base (see refreshBase on operand order). The heuristic
// |dx|+|dy| is an integer, so its float conversion is exact.
func (s *search) relax(c, n int32, x, y int, g float64, e int, es *edgeArrays) {
	if es.dead != nil && es.dead[e] || s.cStamp[n] == s.epoch {
		return
	}
	g += es.base[e] + s.presentFactor*float64(max(int(es.use[e])+1-s.capacity, 0))*4
	if s.gStamp[n] == s.epoch && s.gScore[n] <= g {
		return
	}
	s.gScore[n], s.gStamp[n], s.parent[n] = g, s.epoch, c
	h := max(x-s.sinkX, s.sinkX-x) + max(y-s.sinkY, s.sinkY-y)
	s.q.push(pqItem{f: g + float64(h), cell: n, gi: int32(len(s.gs))})
	s.gs = append(s.gs, g)
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// edgeEnds decodes an edge reference into its two grid cells.
func (r *router) edgeEnds(e edgeRef) (point, point) {
	if e.horizontal {
		y, x := int(e.idx)/(r.nx-1), int(e.idx)%(r.nx-1)
		return point{int16(x), int16(y)}, point{int16(x + 1), int16(y)}
	}
	y, x := int(e.idx)/r.nx, int(e.idx)%r.nx
	return point{int16(x), int16(y)}, point{int16(x), int16(y + 1)}
}

// Directions of a routing-tree edge leaving a cell, as mask bits.
const (
	dirRight uint8 = iota
	dirLeft
	dirDown
	dirUp
)

// step returns the neighbor of p in direction dir.
func (p point) step(dir uint8) point {
	switch dir {
	case dirRight:
		p.x++
	case dirLeft:
		p.x--
	case dirDown:
		p.y++
	default:
		p.y--
	}
	return p
}

// markDir records a tree edge leaving p in direction dir; the first
// mark of a cell under the current tree epoch resets its mask.
func (r *router) markDir(p point, dir uint8) {
	st := r.st
	c := r.cellOf(p)
	if st.inTree[c] != st.treeEpoch {
		st.inTree[c], st.treeDirs[c] = st.treeEpoch, 0
	}
	st.treeDirs[c] |= 1 << dir
}

// finish extracts lengths, per-sink distances and congestion stats.
// The usage and per-net edge arrays transfer from the (possibly
// pooled) State into the Result here — detailed routing reads them
// after the run — and the State reallocates them on its next checkout.
func (r *router) finish(iters int) (*Result, error) {
	res := &Result{
		CellsX: r.nx, CellsY: r.ny,
		BinW: r.binW, BinH: r.binH,
		NetLength:  make([]float64, len(r.prob.Nets)),
		SinkDist:   make([][]float64, len(r.prob.Nets)),
		Iterations: iters,
		capacity:   r.opts.Capacity,
		wire:       defaultWire,
		netEdges:   r.netEdges,
		hEdges:     r.hUse,
		vEdges:     r.vUse,
	}
	r.st.hUse, r.st.vUse = nil, nil
	r.st.h, r.st.v = edgeArrays{}, edgeArrays{}
	edgeLen := (r.binW + r.binH) / 2
	st := r.st
	for ni := range r.prob.Nets {
		res.NetLength[ni] = float64(len(r.netEdges[ni])) * edgeLen
		res.Total += res.NetLength[ni]
		// Per-sink tree distance by BFS over the net's edges. The tree's
		// adjacency is a per-cell mask of edge directions stamped with a
		// fresh tree epoch, and distances live in the A* score array
		// stamped with a fresh search epoch (the searches are over), so
		// no per-net maps are built. Every cell at BFS depth k gets the
		// same k-fold sum of edgeLen, whatever the visiting order.
		net := &r.prob.Nets[ni]
		src := r.binOf(net.Objs[0])
		st.treeEpoch++
		st.epoch++
		for _, e := range r.netEdges[ni] {
			a, b := r.edgeEnds(e)
			if e.horizontal {
				r.markDir(a, dirRight)
				r.markDir(b, dirLeft)
			} else {
				r.markDir(a, dirDown)
				r.markDir(b, dirUp)
			}
		}
		sc := r.cellOf(src)
		st.gScore[sc], st.gStamp[sc] = 0, st.epoch
		queue := append(st.treeList[:0], src)
		for qi := 0; qi < len(queue); qi++ {
			p := queue[qi]
			c := r.cellOf(p)
			if st.inTree[c] != st.treeEpoch {
				continue // a source with no edges
			}
			for dir := uint8(0); dir < 4; dir++ {
				if st.treeDirs[c]&(1<<dir) == 0 {
					continue
				}
				q := p.step(dir)
				qc := r.cellOf(q)
				if st.gStamp[qc] != st.epoch {
					st.gScore[qc], st.gStamp[qc] = st.gScore[c]+edgeLen, st.epoch
					queue = append(queue, q)
				}
			}
		}
		st.treeList = queue[:0]
		res.SinkDist[ni] = make([]float64, len(net.Objs)-1)
		for k, oi := range net.Objs[1:] {
			if c := r.cellOf(r.binOf(oi)); st.gStamp[c] == st.epoch {
				res.SinkDist[ni][k] = st.gScore[c]
			}
		}
	}
	res.Overflow = r.totalOver
	for _, u := range res.hEdges {
		if f := float64(u) / float64(r.opts.Capacity); f > res.MaxUtilization {
			res.MaxUtilization = f
		}
	}
	for _, u := range res.vEdges {
		if f := float64(u) / float64(r.opts.Capacity); f > res.MaxUtilization {
			res.MaxUtilization = f
		}
	}
	return res, nil
}
