// Package place implements the ASIC-style detailed placement stage of
// the paper's flow (the role Dolphin's physical synthesis plays in
// Figure 6): timing-driven simulated annealing over a continuous die,
// minimizing criticality-weighted half-perimeter wirelength, plus the
// incremental refinement loop the packer calls during legalization.
package place

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"vpga/internal/netlist"
	"vpga/internal/obs"
)

// Obj is one placeable object: a configuration instance, flip-flop,
// buffer, or IO pad.
type Obj struct {
	Nodes []netlist.NodeID // netlist nodes this object carries (2 for FA macros)
	Name  string
	Area  float64
	X, Y  float64
	Fixed bool // IO pads are pinned to the periphery
	IsPad bool
	nets  []int32
}

// Net connects a driver object to its sink objects.
type Net struct {
	Objs   []int32 // object indexes, driver first, deduplicated
	Weight float64
}

// Problem is a placement instance.
type Problem struct {
	W, H float64
	Objs []Obj
	Nets []Net

	objOf   map[netlist.NodeID]int32 // netlist node -> object index
	rng     *rand.Rand
	blocked func(x, y float64) bool // defective sites (nil = clean die)

	// Incremental cost kernel state (see incremental.go): cached net
	// costs and wide-net boxes plus the flat SoA mirror the kernel runs
	// on — coordinate and weight arrays and the net↔object adjacency in
	// CSR form.
	boxes     []netBox  // per-net box, maintained for nets of ≥ wideNet pins
	boxCostW  []float64 // per-net weighted cost cache (netW·hpwl)
	x, y      []float64
	netW      []float64
	pinIdx    []int32 // net -> member objects, CSR values
	pinOff    []int32 // net -> member objects, CSR offsets
	objNetIdx []int32 // object -> incident nets, CSR values
	objNetOff []int32 // object -> incident nets, CSR offsets

	// Annealing engine scratch (see anneal.go).
	eng          engineState
	movableCache []int32
	stats        Stats
}

// Stats counts annealer work (proposals and acceptances across every
// Anneal/Refine call on this problem) for benchmarks and profiling.
// Skipped counts proposals dropped by the batch conflict rule.
type Stats struct {
	Proposed, Accepted, Skipped int64
}

// Stats returns the problem's cumulative annealing counters.
func (p *Problem) Stats() Stats { return p.stats }

// AreaFunc returns the placement area of a netlist node (gate or DFF).
type AreaFunc func(n *netlist.Node) float64

// Options tunes the annealer.
type Options struct {
	// Seed drives the annealer's RNG.
	Seed int64
	// MovesPerObj scales annealing effort (default 8; negative is an
	// error).
	MovesPerObj int
	// Blocked marks defective die sites in normalized coordinates
	// (position / die dimension, so a defect map applies to any die
	// size): the initial spread and every annealing move keep movable
	// objects out of blocked positions. Nil means a clean die. Build
	// installs it; Anneal does not read it.
	Blocked func(xn, yn float64) bool
	// Ctx cancels a running Anneal at pass boundaries; a nil context
	// never cancels. Cancellation only ever truncates the schedule, so
	// a run that completes without cancellation is bit-identical to one
	// annealed without a context.
	Ctx context.Context
	// Trace, when set, records one event per temperature pass plus the
	// final cost. Recording is observation only (never consulted by the
	// schedule) and happens at pass boundaries, so the per-move hot
	// loop is untouched and a nil trace costs one nil check per pass.
	Trace *obs.AnnealTrace
}

// utilization is the cell-area / core-area target: Build sizes every
// die square so its cells fill this fraction of it.
const utilization = 0.70

// Build extracts the placement problem from a netlist. Objects are
// gates, flip-flops and IO pads; nodes sharing a nonzero Group become
// one object. Pads are distributed around the periphery and fixed.
func Build(nl *netlist.Netlist, area AreaFunc, opts Options) (*Problem, error) {
	p := &Problem{
		objOf: map[netlist.NodeID]int32{},
		rng:   rand.New(rand.NewSource(opts.Seed + 1)),
	}

	groupObj := map[int32]int32{}
	totalArea := 0.0
	addObj := func(o Obj) int32 {
		idx := int32(len(p.Objs))
		p.Objs = append(p.Objs, o)
		return idx
	}
	for _, n := range nl.Nodes() {
		switch n.Kind {
		case netlist.KindGate, netlist.KindDFF:
			if n.Group != 0 {
				if idx, ok := groupObj[n.Group]; ok {
					p.objOf[n.ID] = idx
					p.Objs[idx].Nodes = append(p.Objs[idx].Nodes, n.ID)
					continue
				}
			}
			a := area(n)
			idx := addObj(Obj{Nodes: []netlist.NodeID{n.ID}, Name: n.Type, Area: a})
			p.objOf[n.ID] = idx
			totalArea += a
			if n.Group != 0 {
				groupObj[n.Group] = idx
			}
		case netlist.KindInput, netlist.KindOutput:
			idx := addObj(Obj{Nodes: []netlist.NodeID{n.ID}, Name: n.Name, Fixed: true, IsPad: true})
			p.objOf[n.ID] = idx
		case netlist.KindConst:
			// Constants are via-programmed ties; no placement object.
		}
	}
	if totalArea == 0 {
		return nil, fmt.Errorf("place: netlist %s has no placeable area", nl.Name)
	}
	side := math.Sqrt(totalArea / utilization)
	p.W, p.H = side, side
	if blocked := opts.Blocked; blocked != nil {
		// The map is normalized; the annealer tests absolute positions.
		p.blocked = func(x, y float64) bool { return blocked(x/p.W, y/p.H) }
	}

	// Nets: one per driver with readers. inNet[obj] == node ID + 1
	// marks obj as already listed on the node's net.
	inNet := make([]int32, len(p.Objs))
	for _, n := range nl.Nodes() {
		driver, ok := p.objOf[n.ID]
		if !ok {
			continue
		}
		outs := nl.Fanouts(n.ID)
		if len(outs) == 0 {
			continue
		}
		mark := int32(n.ID) + 1
		inNet[driver] = mark
		objs := []int32{driver}
		for _, o := range outs {
			if idx, ok := p.objOf[o]; ok && inNet[idx] != mark {
				inNet[idx] = mark
				objs = append(objs, idx)
			}
		}
		if len(objs) < 2 {
			continue
		}
		p.Nets = append(p.Nets, Net{Objs: objs, Weight: 1})
	}
	for ni := range p.Nets {
		for _, oi := range p.Nets[ni].Objs {
			p.Objs[oi].nets = append(p.Objs[oi].nets, int32(ni))
		}
	}
	p.buildCSR()

	p.placePads()
	p.randomSpread()
	return p, nil
}

// ObjIndex returns the placement object carrying the given netlist
// node, or -1.
func (p *Problem) ObjIndex(id netlist.NodeID) int32 {
	if idx, ok := p.objOf[id]; ok {
		return idx
	}
	return -1
}

// placePads distributes IO pads evenly around the periphery.
func (p *Problem) placePads() {
	var pads []int32
	for i := range p.Objs {
		if p.Objs[i].IsPad {
			pads = append(pads, int32(i))
		}
	}
	perimeter := 2 * (p.W + p.H)
	for i, idx := range pads {
		d := perimeter * float64(i) / float64(len(pads))
		o := &p.Objs[idx]
		switch {
		case d < p.W:
			o.X, o.Y = d, 0
		case d < p.W+p.H:
			o.X, o.Y = p.W, d-p.W
		case d < 2*p.W+p.H:
			o.X, o.Y = 2*p.W+p.H-d, p.H
		default:
			o.X, o.Y = 0, perimeter-d
		}
	}
}

// randomSpread scatters movable objects uniformly, avoiding blocked
// sites by rejection sampling.
func (p *Problem) randomSpread() {
	for i := range p.Objs {
		if p.Objs[i].Fixed {
			continue
		}
		x, y := p.freePosition(p.rng)
		p.Objs[i].X = x
		p.Objs[i].Y = y
	}
}

// freePosition draws a uniform die position outside blocked regions.
// If the map is so dense that sampling keeps failing, the last draw is
// returned anyway — the flow then fails downstream and the repair loop
// takes over.
func (p *Problem) freePosition(rng *rand.Rand) (float64, float64) {
	var x, y float64
	for try := 0; try < 64; try++ {
		x = rng.Float64() * p.W
		y = rng.Float64() * p.H
		if p.blocked == nil || !p.blocked(x, y) {
			break
		}
	}
	return x, y
}

// evictBlocked re-seats movable objects sitting on blocked sites
// (force-directed passes and external callers may have dragged them
// there).
func (p *Problem) evictBlocked(rng *rand.Rand, movable []int32) {
	if p.blocked == nil {
		return
	}
	for _, oi := range movable {
		o := &p.Objs[oi]
		if p.blocked(o.X, o.Y) {
			o.X, o.Y = p.freePosition(rng)
		}
	}
}

// ForceDirected runs quadratic-style global placement passes: each
// movable object moves to the centroid of its net neighbors (pads act
// as anchors), then a rank-based quantile spread restores uniform
// density. A few passes give the annealer a connectivity-aware start,
// which matters at tens of thousands of objects.
func (p *Problem) ForceDirected(passes int) {
	movable := p.movable()
	if len(movable) == 0 {
		return
	}
	sumX := make([]float64, len(p.Objs))
	sumY := make([]float64, len(p.Objs))
	cnt := make([]float64, len(p.Objs))
	keys := make([]rankKey, len(movable))
	for pass := 0; pass < passes; pass++ {
		for i := range sumX {
			sumX[i], sumY[i], cnt[i] = 0, 0, 0
		}
		for ni := range p.Nets {
			net := &p.Nets[ni]
			// Net centroid.
			cx, cy := 0.0, 0.0
			for _, oi := range net.Objs {
				cx += p.Objs[oi].X
				cy += p.Objs[oi].Y
			}
			cx /= float64(len(net.Objs))
			cy /= float64(len(net.Objs))
			w := net.Weight
			for _, oi := range net.Objs {
				sumX[oi] += w * cx
				sumY[oi] += w * cy
				cnt[oi] += w
			}
		}
		for _, oi := range movable {
			if cnt[oi] > 0 {
				p.Objs[oi].X = sumX[oi] / cnt[oi]
				p.Objs[oi].Y = sumY[oi] / cnt[oi]
			}
		}
		p.quantileSpread(movable, keys)
	}
}

// quantileSpread redistributes movable objects so each axis is
// uniformly occupied while preserving relative order (a monotone
// stretch), undoing the centroid collapse of a force pass. Ties keep
// object index order. keys is scratch of len(movable).
func (p *Problem) quantileSpread(movable []int32, keys []rankKey) {
	scale := func(rank int) float64 { return (float64(rank) + 0.5) / float64(len(keys)) }
	for i, oi := range movable {
		keys[i] = rankKey{p.Objs[oi].X, oi}
	}
	sortRankKeys(keys)
	for rank, k := range keys {
		p.Objs[k.oi].X = scale(rank) * p.W
	}
	for i, oi := range movable {
		keys[i] = rankKey{p.Objs[oi].Y, oi}
	}
	sortRankKeys(keys)
	for rank, k := range keys {
		p.Objs[k.oi].Y = scale(rank) * p.H
	}
}

// rankKey is one object's coordinate on the axis being spread.
type rankKey struct {
	v  float64
	oi int32
}

// sortRankKeys orders keys by coordinate, ties by object index.
func sortRankKeys(keys []rankKey) {
	slices.SortFunc(keys, func(a, b rankKey) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.oi, b.oi)
	})
}

// netHPWL computes one net's half-perimeter wirelength.
func (p *Problem) netHPWL(n *Net) float64 {
	first := &p.Objs[n.Objs[0]]
	minX, maxX := first.X, first.X
	minY, maxY := first.Y, first.Y
	for _, oi := range n.Objs[1:] {
		o := &p.Objs[oi]
		if o.X < minX {
			minX = o.X
		} else if o.X > maxX {
			maxX = o.X
		}
		if o.Y < minY {
			minY = o.Y
		} else if o.Y > maxY {
			maxY = o.Y
		}
	}
	return (maxX - minX) + (maxY - minY)
}

// HPWL returns the total weighted half-perimeter wirelength.
func (p *Problem) HPWL() float64 {
	total := 0.0
	for i := range p.Nets {
		total += p.Nets[i].Weight * p.netHPWL(&p.Nets[i])
	}
	return total
}

// SetNetWeight scales net i's cost contribution (timing criticality).
// The annealing kernel picks the weight up when Anneal or Refine next
// rebuilds its caches.
func (p *Problem) SetNetWeight(i int, w float64) {
	p.Nets[i].Weight = w
}

// Anneal runs the global simulated-annealing placement. It reads
// opts.Seed, MovesPerObj, Ctx and Trace; a negative MovesPerObj is an
// error. When opts.Ctx is cancelled the anneal stops at the next pass
// boundary and returns the context's error; the placement is then
// incomplete but structurally valid. If Build received a blocked map,
// movable objects are evicted from blocked sites before annealing and
// no move re-enters one.
func (p *Problem) Anneal(opts Options) error {
	switch {
	case opts.MovesPerObj < 0:
		return fmt.Errorf("place: negative MovesPerObj %d", opts.MovesPerObj)
	case opts.MovesPerObj == 0:
		opts.MovesPerObj = 8
	}
	movable := p.movable()
	if len(movable) == 0 {
		return nil
	}
	// Connectivity-aware seeding, then a low-temperature anneal: the
	// force-directed solution is already global, so the anneal refines
	// rather than re-melts.
	p.ForceDirected(30)
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	p.evictBlocked(rng, movable)
	p.initBoxes()
	e := p.engine()
	temp := p.estimateInitialTemp(rng, movable, &e.slot) * 0.05
	window := math.Max(p.W, p.H) * 0.15
	minTemp := temp * 1e-4
	seedKey := mix64(uint64(opts.Seed))
	for pass := uint64(1); temp > minTemp; pass++ {
		if err := ctxErr(opts.Ctx); err != nil {
			return err
		}
		moves := opts.MovesPerObj * len(movable)
		passKey := mix64(seedKey + pass*golden64)
		accepted, _ := p.runPass(e, passKey, moves, movable, window, temp)
		opts.Trace.Pass(temp, moves, accepted)
		rate := float64(accepted) / float64(moves)
		// VPR-style schedule: cool slower near the critical acceptance
		// region, shrink the window toward the target 44% acceptance.
		switch {
		case rate > 0.96:
			temp *= 0.5
		case rate > 0.8:
			temp *= 0.9
		case rate > 0.15:
			temp *= 0.95
		default:
			temp *= 0.8
		}
		window = math.Max(window*(1-0.44+rate), math.Max(p.W, p.H)*0.02)
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return err
	}
	p.Refine(0.05, 2, opts.Seed+13)
	if opts.Trace != nil {
		opts.Trace.Final(p.HPWL())
	}
	return nil
}

// ctxErr is a nil-tolerant ctx.Err().
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// movable returns the non-fixed object indexes. Fixed flags are set
// once in Build and never change, so the slice is computed once and
// reused across every Anneal/Refine call.
func (p *Problem) movable() []int32 {
	if p.movableCache == nil {
		out := make([]int32, 0, len(p.Objs))
		for i := range p.Objs {
			if !p.Objs[i].Fixed {
				out = append(out, int32(i))
			}
		}
		p.movableCache = out
	}
	return p.movableCache
}

// estimateInitialTemp samples random long-range displacements through
// the engine's evaluator (slot s is scratch) and averages their
// |ΔHPWL|. Requires valid boxes.
func (p *Problem) estimateInitialTemp(rng *rand.Rand, movable []int32, s *slot) float64 {
	sum := 0.0
	n := 0
	for i := 0; i < 50 && i < len(movable); i++ {
		oi := movable[rng.Intn(len(movable))]
		nx := rng.Float64() * p.W
		ny := rng.Float64() * p.H
		p.evalMove(oi, nx, ny, s)
		sum += math.Abs(s.delta)
		n++
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return 20 * sum / float64(n)
}

// Refine runs zero-temperature local improvement with a small window;
// the packer invokes it after restricting objects to regions. Boxes
// are rebuilt on entry because callers (packer, net reweighting flows)
// may have moved objects since the last incremental update. Moves go
// through the engine's evaluator and commit, at temperature 0: a move
// is kept when it does not raise the cost.
func (p *Problem) Refine(windowFrac float64, passes int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	movable := p.movable()
	if len(movable) == 0 {
		return
	}
	p.initBoxes()
	e := p.engine()
	s := &e.slot
	window := math.Max(p.W, p.H) * windowFrac
	for pass := 0; pass < passes; pass++ {
		for _, oi := range movable {
			p.stats.Proposed++
			nx := clamp(p.x[oi]+(rng.Float64()*2-1)*window, 0, p.W)
			ny := clamp(p.y[oi]+(rng.Float64()*2-1)*window, 0, p.H)
			if p.blocked != nil && p.blocked(nx, ny) {
				continue
			}
			p.evalMove(oi, nx, ny, s)
			if p.commitSlot(e, s, 0) {
				p.stats.Accepted++
			}
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ObjNets returns the indexes of the nets incident to object oi.
func (p *Problem) ObjNets(oi int32) []int32 { return p.Objs[oi].nets }
