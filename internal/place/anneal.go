package place

// Deterministic batched annealing engine.
//
// Moves are generated in fixed-size batches from counter-based
// per-proposal RNG streams: proposal m of a pass derives every random
// draw from mix64(passKey + m·golden), so its outcome depends only on
// (seed, pass, m) and the placement state at the start of its batch.
// Within a batch, proposals commit strictly in proposal order, and a
// proposal whose objects' nets were touched by an earlier accepted
// commit in the same batch is skipped. The skip is checked before the
// proposal is evaluated, which cannot change any outcome: an
// unconflicted proposal's nets (and therefore every position and box
// its delta reads) are untouched since the batch started, so it sees
// exactly the batch-start state.

import (
	"math"
	"math/bits"
)

// annealBatch is the number of proposals per batch. It is part of the
// algorithm definition (every result depends on the batch boundaries
// and the conflict skip within them), so it is a constant, not an
// option.
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
// displacements) are always populated, even for invalid proposals, so
// a slot always names the objects its proposal moves.
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

// evalScratch holds the shared-net marks a swap evaluation needs.
type evalScratch struct {
	mark  []int64
	epoch int64
}

// engineState is the annealing engine's reusable scratch, lazily sized
// on first use and shared across passes.
type engineState struct {
	slot      slot
	scratch   evalScratch
	batchMark []int64
	batchEp   int64
}

func (p *Problem) engine() *engineState {
	e := &p.eng
	if len(e.batchMark) < len(p.Nets) {
		e.batchMark = make([]int64, len(p.Nets))
		e.batchEp = 0
		e.scratch = evalScratch{mark: make([]int64, len(p.Nets))}
	}
	return e
}

// genMove draws the head of proposal m's stream: the moved object and
// the move kind. The kind comes from the top bits of the object draw's
// discarded low multiply word (one-in-eight swaps), saving a full draw
// per proposal. Positions are not consulted, so runBatch can run its
// conflict check before any further draws.
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

// metropolis is the annealer's acceptance rule. The cheap bounds 1-x ≤ exp(-x) ≤ 1/(1+x)
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

// runBatch runs proposals base..base+n-1 of a pass in order, each one
// conflict-checked before it is evaluated (see the file comment).
func (p *Problem) runBatch(e *engineState, passKey uint64, base, n int, movable []int32, window, temp float64) (accepted, skipped int) {
	s := &e.slot
	ws := &e.scratch
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

// runPass executes one temperature pass of `moves` proposals and
// returns the accepted and conflict-skipped counts.
func (p *Problem) runPass(e *engineState, passKey uint64, moves int, movable []int32, window, temp float64) (accepted, skipped int) {
	for base := 0; base < moves; base += annealBatch {
		e.batchEp++
		acc, skip := p.runBatch(e, passKey, base, min(annealBatch, moves-base), movable, window, temp)
		accepted += acc
		skipped += skip
	}
	p.stats.Proposed += int64(moves)
	p.stats.Accepted += int64(accepted)
	p.stats.Skipped += int64(skipped)
	return accepted, skipped
}
