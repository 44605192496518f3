package place

// Deterministic parallel annealing engine.
//
// Moves are generated in fixed-size batches from counter-based
// per-proposal RNG streams: proposal m of a pass derives every random
// draw from mix64(passKey + m·golden), so its outcome depends only on
// (seed, pass, m) and the placement state at the start of its batch —
// never on which worker evaluated it. Within a batch, proposals are
// evaluated against the batch-start state (in parallel when
// Options.Workers > 1) and committed strictly in proposal order; a
// proposal whose objects' nets were touched by an earlier accepted
// commit in the same batch is skipped deterministically. The result is
// bit-identical at any worker count: one worker runs the same
// algorithm fused, skipping conflicted proposals before evaluating
// them — which provably cannot change any outcome, because an
// unconflicted proposal's nets (and therefore every position and box
// its delta reads) are untouched since the batch started.

import (
	"math"
	"math/bits"
	"sync"
)

// annealBatch is the number of proposals per batch. It is part of the
// algorithm definition (results change with it), so it is a constant,
// not an option: determinism across worker counts requires the batch
// boundaries to be fixed. Small enough to keep intra-batch conflict
// skips rare, large enough to amortize the parallel dispatch.
const annealBatch = 32

// expRejectFactor: a proposal with delta ≥ expRejectFactor·temp is
// rejected without evaluating exp(-delta/temp) — the acceptance
// probability is below 1e-13, beneath the resolution of the uniform
// draw for any practical schedule length. Part of the algorithm
// definition, like annealBatch.
const expRejectFactor = 30.0

// mix64 is the splitmix64 finalizer: a bijective avalanche mix used to
// derive decorrelated per-proposal RNG streams from a counter.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

const golden64 = 0x9e3779b97f4a7c15

// prng is a tiny counter-based generator: state advances by the golden
// ratio and every output is a full mix64 avalanche (splitmix64).
type prng uint64

// propRNG returns the RNG stream of proposal m under passKey.
func propRNG(passKey uint64, m int) prng {
	return prng(mix64(passKey + uint64(m)*golden64))
}

func (r *prng) next() uint64 {
	*r += golden64
	return mix64(uint64(*r))
}

// float64v returns a uniform draw in [0,1) with 53 bits of precision.
func (r *prng) float64v() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform draw in [0,n) (Lemire's multiply-shift).
func (r *prng) intn(n int32) int32 {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int32(hi)
}

// slot holds one evaluated proposal: the move, its pre-drawn
// acceptance uniform, the cost delta against the batch-start state,
// and the tentative cost of every net the move touches plus the
// tentative box of every wide one. oi and oj (oj = -1 for
// displacements) are always populated, even for invalid proposals —
// the commit loop's conflict check keys off them.
type slot struct {
	swap    bool
	invalid bool // rejected before evaluation (self-swap, blocked site)
	oi, oj  int32
	nx, ny  float64
	u       float64
	delta   float64
	nets    []int32
	costs   []float64 // tentative weighted cost, in nets order
	boxes   []netBox  // tentative boxes of the wide nets, in nets order
}

// evalScratch is per-worker evaluation state: the shared-net marks a
// swap evaluation needs. Worker-local so parallel evaluations never
// contend.
type evalScratch struct {
	mark  []int64
	epoch int64
}

// engineState is the annealing engine's reusable scratch, lazily sized
// on first use and shared across passes.
type engineState struct {
	slots     []slot
	batchMark []int64
	batchEp   int64
	scratch   []evalScratch // one per worker
}

func (p *Problem) engine(workers int) *engineState {
	e := &p.eng
	if e.slots == nil {
		e.slots = make([]slot, annealBatch)
	}
	if len(e.batchMark) < len(p.Nets) {
		e.batchMark = make([]int64, len(p.Nets))
		e.batchEp = 0
	}
	for len(e.scratch) < workers {
		e.scratch = append(e.scratch, evalScratch{})
	}
	for i := range e.scratch {
		if len(e.scratch[i].mark) < len(p.Nets) {
			e.scratch[i].mark = make([]int64, len(p.Nets))
			e.scratch[i].epoch = 0
		}
	}
	return e
}

// genMove draws the head of proposal m's stream: the moved object and
// the move kind. The kind comes from the top bits of the object draw's
// discarded low multiply word (one-in-eight swaps), saving a full draw
// per proposal. Positions are not consulted, so the fused path can run
// its conflict check before any further draws.
func genMove(r *prng, movable []int32) (oi int32, swap bool, oj int32) {
	hi, lo := bits.Mul64(r.next(), uint64(len(movable)))
	oi = movable[hi]
	if lo>>61 == 0 {
		return oi, true, movable[r.intn(int32(len(movable)))]
	}
	return oi, false, -1
}

// evalDisplace draws a displacement proposal and evaluates it against
// the current state into s. The target position derives from the
// object's current coordinates, so it must run before any same-batch
// commit touches the object's nets (the engine guarantees this via the
// conflict skip).
func (p *Problem) evalDisplace(r *prng, oi int32, window float64, s *slot) {
	nx := clamp(p.x[oi]+(r.float64v()*2-1)*window, 0, p.W)
	ny := clamp(p.y[oi]+(r.float64v()*2-1)*window, 0, p.H)
	s.u = r.float64v()
	if p.blocked != nil && p.blocked(nx, ny) {
		s.swap, s.oi, s.oj, s.invalid = false, oi, -1, true
		return
	}
	p.evalMove(oi, nx, ny, s)
}

// evalMove evaluates moving object oi to (nx, ny) into s: the engine's
// evaluator for every displacement, drawn by the annealer or by Refine
// and estimateInitialTemp.
func (p *Problem) evalMove(oi int32, nx, ny float64, s *slot) {
	s.swap, s.oi, s.oj, s.invalid = false, oi, -1, false
	s.nx, s.ny = nx, ny
	s.nets, s.costs, s.boxes = s.nets[:0], s.costs[:0], s.boxes[:0]
	ox, oy := p.x[oi], p.y[oi]
	delta := 0.0
	for _, ni := range p.objNets(oi) {
		c := p.movedCost(ni, oi, ox, oy, nx, ny, s)
		s.nets = append(s.nets, ni)
		s.costs = append(s.costs, c)
		delta += c - p.boxCostW[ni]
	}
	s.delta = delta
}

// evalSwap evaluates a swap proposal against the current state into s.
// A net touching one end sees that end move onto the other's site. A
// net shared by both ends keeps its point set — the swap only permutes
// it — and so its box and cost.
func (p *Problem) evalSwap(r *prng, oi, oj int32, s *slot, ws *evalScratch) {
	s.u = r.float64v()
	s.swap, s.oi, s.oj = true, oi, oj
	if oi == oj {
		s.invalid = true
		return
	}
	xi, yi := p.x[oi], p.y[oi]
	xj, yj := p.x[oj], p.y[oj]
	// A swap moves each object onto the other's site; both targets
	// must be usable (an endpoint may sit on a defective site if an
	// external caller parked it there).
	if p.blocked != nil && (p.blocked(xj, yj) || p.blocked(xi, yi)) {
		s.invalid = true
		return
	}
	s.invalid = false
	s.nets, s.costs, s.boxes = s.nets[:0], s.costs[:0], s.boxes[:0]
	epoch := ws.epoch + 1
	ws.epoch += 2 // epoch marks oj's nets, epoch+1 marks shared nets already handled
	for _, ni := range p.objNets(oj) {
		ws.mark[ni] = epoch
	}
	delta := 0.0
	for _, ni := range p.objNets(oi) {
		var c float64
		if ws.mark[ni] == epoch { // shared: box and cost stand
			ws.mark[ni] = epoch + 1
			c = p.boxCostW[ni]
			if p.pinOff[ni+1]-p.pinOff[ni] >= wideNet {
				s.boxes = append(s.boxes, p.boxes[ni])
			}
		} else {
			c = p.movedCost(ni, oi, xi, yi, xj, yj, s)
		}
		s.nets = append(s.nets, ni)
		s.costs = append(s.costs, c)
		delta += c - p.boxCostW[ni]
	}
	for _, ni := range p.objNets(oj) {
		if ws.mark[ni] == epoch+1 {
			continue // shared, handled above
		}
		c := p.movedCost(ni, oj, xj, yj, xi, yi, s)
		s.nets = append(s.nets, ni)
		s.costs = append(s.costs, c)
		delta += c - p.boxCostW[ni]
	}
	s.delta = delta
}

// evalProposal fills slot s for proposal m of a pass, evaluated
// against the current (batch-start) state.
func (p *Problem) evalProposal(passKey uint64, m int, movable []int32, window float64, s *slot, ws *evalScratch) {
	r := propRNG(passKey, m)
	oi, swap, oj := genMove(&r, movable)
	if swap {
		p.evalSwap(&r, oi, oj, s, ws)
	} else {
		p.evalDisplace(&r, oi, window, s)
	}
}

// metropolis is the acceptance rule shared by every path (fused and
// parallel run the identical instruction sequence, so it is one
// deterministic algorithm). The cheap bounds 1-x ≤ exp(-x) ≤ 1/(1+x)
// resolve most uniforms without evaluating exp; only draws landing in
// the narrow gap between the bounds pay for the real thing.
func metropolis(delta, temp, u float64) bool {
	if delta <= 0 {
		return true
	}
	if delta >= expRejectFactor*temp {
		return false
	}
	x := delta / temp
	if u < 1-x {
		return true
	}
	if u*(1+x) >= 1 {
		return false
	}
	return u < math.Exp(-x)
}

// conflicted reports whether a proposal moving oi (and oj, for swaps)
// collides with an earlier accepted commit in the current batch. The
// check keys off the objects' incident nets: an accepted move marks
// every net it touched, and any state a proposal's delta reads —
// positions of objects in its nets, boxes of its nets — is reachable
// only through those nets.
func (p *Problem) conflicted(e *engineState, oi int32, swap bool, oj int32) bool {
	for _, ni := range p.objNets(oi) {
		if e.batchMark[ni] == e.batchEp {
			return true
		}
	}
	if swap {
		for _, ni := range p.objNets(oj) {
			if e.batchMark[ni] == e.batchEp {
				return true
			}
		}
	}
	return false
}

// commitSlot applies an evaluated, unconflicted proposal: the
// Metropolis test on its pre-drawn uniform, then — on acceptance —
// positions (both the SoA mirror and the Obj fields), cached costs and
// wide-net boxes, and the batch conflict marks.
func (p *Problem) commitSlot(e *engineState, s *slot, temp float64) bool {
	if !metropolis(s.delta, temp, s.u) {
		return false
	}
	if s.swap {
		oi, oj := s.oi, s.oj
		p.x[oi], p.x[oj] = p.x[oj], p.x[oi]
		p.y[oi], p.y[oj] = p.y[oj], p.y[oi]
		a, b := &p.Objs[oi], &p.Objs[oj]
		a.X, a.Y, b.X, b.Y = b.X, b.Y, a.X, a.Y
	} else {
		p.x[s.oi], p.y[s.oi] = s.nx, s.ny
		o := &p.Objs[s.oi]
		o.X, o.Y = s.nx, s.ny
	}
	bi := 0
	for k, ni := range s.nets {
		if p.pinOff[ni+1]-p.pinOff[ni] >= wideNet {
			p.boxes[ni] = s.boxes[bi]
			bi++
		}
		p.boxCostW[ni] = s.costs[k]
		e.batchMark[ni] = e.batchEp
	}
	return true
}

// runBatchFused is the single-worker path: proposals are processed in
// order, each one conflict-checked before evaluation (an unconflicted
// proposal sees exactly the batch-start state, so skipping early is
// outcome-identical to the parallel path's evaluate-then-skip).
func (p *Problem) runBatchFused(e *engineState, passKey uint64, base, n int, movable []int32, window, temp float64) (accepted, skipped int) {
	s := &e.slots[0]
	ws := &e.scratch[0]
	for m := base; m < base+n; m++ {
		r := propRNG(passKey, m)
		oi, swap, oj := genMove(&r, movable)
		if p.conflicted(e, oi, swap, oj) {
			skipped++
			continue
		}
		if swap {
			p.evalSwap(&r, oi, oj, s, ws)
		} else {
			p.evalDisplace(&r, oi, window, s)
		}
		if s.invalid {
			continue
		}
		if p.commitSlot(e, s, temp) {
			accepted++
		}
	}
	return accepted, skipped
}

// annealPool owns the evaluation workers of one Anneal call.
type annealPool struct {
	work chan evalChunk
	wg   sync.WaitGroup
}

type evalChunk struct {
	lo, hi  int // slot indexes within the batch
	base    int // first proposal index of the batch
	passKey uint64
	movable []int32
	window  float64
	ws      *evalScratch
}

func (p *Problem) startPool(workers int) *annealPool {
	pool := &annealPool{work: make(chan evalChunk)}
	for w := 1; w < workers; w++ {
		go func() {
			for c := range pool.work {
				for i := c.lo; i < c.hi; i++ {
					p.evalProposal(c.passKey, c.base+i, c.movable, c.window, &p.eng.slots[i], c.ws)
				}
				pool.wg.Done()
			}
		}()
	}
	return pool
}

func (pool *annealPool) stop() { close(pool.work) }

// runBatchParallel evaluates a batch's proposals concurrently against
// the batch-start state (slots are disjoint per proposal; all shared
// state is read-only during evaluation), then commits serially in
// proposal order with the same conflict-skip rule — and the same
// skip/invalid precedence — as the fused path.
func (p *Problem) runBatchParallel(e *engineState, pool *annealPool, workers int, passKey uint64, base, n int, movable []int32, window, temp float64) (accepted, skipped int) {
	per := (n + workers - 1) / workers
	lo := per // chunk 0 runs on this goroutine
	for w := 1; w < workers && lo < n; w++ {
		hi := minInt(lo+per, n)
		pool.wg.Add(1)
		pool.work <- evalChunk{lo: lo, hi: hi, base: base, passKey: passKey,
			movable: movable, window: window, ws: &e.scratch[w]}
		lo = hi
	}
	for i := 0; i < minInt(per, n); i++ {
		p.evalProposal(passKey, base+i, movable, window, &e.slots[i], &e.scratch[0])
	}
	pool.wg.Wait()
	for i := 0; i < n; i++ {
		s := &e.slots[i]
		if p.conflicted(e, s.oi, s.swap, s.oj) {
			skipped++
			continue
		}
		if s.invalid {
			continue
		}
		if p.commitSlot(e, s, temp) {
			accepted++
		}
	}
	return accepted, skipped
}

// runPass executes one temperature pass of `moves` proposals and
// returns the accepted and conflict-skipped counts. Identical results
// at any worker count.
func (p *Problem) runPass(e *engineState, pool *annealPool, workers int, passKey uint64, moves int, movable []int32, window, temp float64) (accepted, skipped int) {
	for base := 0; base < moves; base += annealBatch {
		n := minInt(annealBatch, moves-base)
		e.batchEp++
		var acc, skip int
		if workers > 1 && n > 1 {
			acc, skip = p.runBatchParallel(e, pool, workers, passKey, base, n, movable, window, temp)
		} else {
			acc, skip = p.runBatchFused(e, passKey, base, n, movable, window, temp)
		}
		accepted += acc
		skipped += skip
	}
	p.stats.Proposed += int64(moves)
	p.stats.Accepted += int64(accepted)
	p.stats.Skipped += int64(skipped)
	return accepted, skipped
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
