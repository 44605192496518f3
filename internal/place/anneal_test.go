package place

import (
	"math"
	"math/rand"
	"testing"
)

// TestSoAKernelMatchesScratchRandomOps is the property test for the
// SoA incremental cost kernel: a long randomized sequence of moves
// evaluated and committed through the engine path (evalDisplace /
// evalMove / evalSwap → commitSlot), cross-checked for exact float
// equality against from-scratch computeBox rebuilds along the way.
// Unlike the pass-level test it includes degenerate moves: zero-length
// displacements, moves stacking an object exactly onto another's
// position (shared boundaries), swaps of two objects sharing a 3-pin
// net, and interleaved external perturbations absorbed by initBoxes.
func TestSoAKernelMatchesScratchRandomOps(t *testing.T) {
	p, _, _ := buildProblem(t, src, 21)
	p.initBoxes()
	checkBoxes(t, p, "init")
	rng := rand.New(rand.NewSource(99))
	movable := p.movable()
	e := p.engine(1)
	var s slot
	ws := &e.scratch[0]
	var tri [][]int32 // movable pin pairs of 3-pin nets
	for ni := range p.Nets {
		if pins := p.netPins(int32(ni)); len(pins) == 3 {
			var mv []int32
			for _, oi := range pins {
				if !p.Objs[oi].Fixed {
					mv = append(mv, oi)
				}
			}
			if len(mv) >= 2 {
				tri = append(tri, mv[:2])
			}
		}
	}
	if len(tri) == 0 {
		t.Fatal("test design has no 3-pin net with two movable pins")
	}
	commit := func() {
		if !s.invalid {
			e.batchEp++
			if !p.commitSlot(e, &s, math.Inf(1)) { // always accept
				t.Fatalf("commit at infinite temperature rejected delta %v", s.delta)
			}
		}
	}
	ops := map[string]int{}
	for op := 0; op < 4000; op++ {
		r := prng(rng.Uint64())
		switch k := rng.Intn(10); k {
		case 0, 1: // swap of two random objects
			ops["swap"]++
			p.evalSwap(&r, movable[rng.Intn(len(movable))], movable[rng.Intn(len(movable))], &s, ws)
		case 2: // swap of two objects sharing a 3-pin net
			ops["swap3"]++
			pair := tri[rng.Intn(len(tri))]
			p.evalSwap(&r, pair[0], pair[1], &s, ws)
		case 3: // zero-length displacement (old == new on every boundary)
			ops["zero"]++
			p.evalDisplace(&r, movable[rng.Intn(len(movable))], 0, &s)
		case 4: // stack exactly onto another object's position
			ops["stack"]++
			oi, oj := movable[rng.Intn(len(movable))], movable[rng.Intn(len(movable))]
			p.evalMove(oi, p.x[oj], p.y[oj], &s)
		default: // long-range displacement, clamped to the die
			ops["long"]++
			p.evalDisplace(&r, movable[rng.Intn(len(movable))], math.Max(p.W, p.H), &s)
		}
		commit()
		if op%500 == 499 {
			checkBoxes(t, p, "mid-sequence")
		}
	}
	checkBoxes(t, p, "final")
	for _, kind := range []string{"swap", "swap3", "zero", "stack", "long"} {
		if ops[kind] == 0 {
			t.Fatalf("op kind %q never ran: %v", kind, ops)
		}
	}
	// External writers bypass the kernel; initBoxes must resync the SoA
	// mirror and rebuild.
	for _, oi := range movable {
		p.Objs[oi].X = rng.Float64() * p.W
		p.Objs[oi].Y = rng.Float64() * p.H
	}
	p.initBoxes()
	checkBoxes(t, p, "after external perturbation")
}

// TestAnnealDeterministicAcrossWorkers: the parallel annealing engine
// must produce bit-identical placements at any worker count — every
// object position, the final HPWL, and the solver counters.
func TestAnnealDeterministicAcrossWorkers(t *testing.T) {
	type result struct {
		xs, ys []float64
		hpwl   float64
		stats  Stats
	}
	run := func(workers int) result {
		p, _, _ := buildProblem(t, src, 31)
		if err := p.Anneal(Options{Seed: 31, MovesPerObj: 4, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		r := result{hpwl: p.HPWL(), stats: p.Stats()}
		for i := range p.Objs {
			r.xs = append(r.xs, p.Objs[i].X)
			r.ys = append(r.ys, p.Objs[i].Y)
		}
		return r
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if got.hpwl != ref.hpwl {
			t.Fatalf("workers=%d: HPWL %v, workers=1: %v", workers, got.hpwl, ref.hpwl)
		}
		if got.stats != ref.stats {
			t.Fatalf("workers=%d: stats %+v, workers=1: %+v", workers, got.stats, ref.stats)
		}
		for i := range ref.xs {
			if got.xs[i] != ref.xs[i] || got.ys[i] != ref.ys[i] {
				t.Fatalf("workers=%d: object %d at (%v,%v), workers=1 at (%v,%v)",
					workers, i, got.xs[i], got.ys[i], ref.xs[i], ref.ys[i])
			}
		}
	}
}

// TestAnnealWorkersWithBlockedSites: worker-count invariance must hold
// with a defect map installed, where proposals can go invalid.
func TestAnnealWorkersWithBlockedSites(t *testing.T) {
	blocked := func(xn, yn float64) bool { return xn < 0.25 && yn < 0.5 }
	run := func(workers int) []float64 {
		_, nl, arch := buildProblem(t, src, 32)
		p, err := Build(nl, ArchArea(arch), Options{Seed: 32, Blocked: blocked})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Anneal(Options{Seed: 32, MovesPerObj: 4, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := range p.Objs {
			out = append(out, p.Objs[i].X, p.Objs[i].Y)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{3, 8} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d diverged at coordinate %d: %v vs %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestRunPassFusedMatchesParallel pins the fused/parallel equivalence
// at the pass level: identical batch streams applied to identical
// problems must leave identical state and identical accept/skip
// counts, at several temperatures and window sizes.
func TestRunPassFusedMatchesParallel(t *testing.T) {
	build := func() *Problem {
		p, _, _ := buildProblem(t, src, 33)
		p.initBoxes()
		return p
	}
	a, b := build(), build()
	movable := a.movable()
	ea := a.engine(1)
	workers := 4
	eb := b.engine(workers)
	pool := b.startPool(workers)
	defer pool.stop()
	window := math.Max(a.W, a.H) * 0.2
	for pi, temp := range []float64{50, 5, 0.5, 1e-9} {
		passKey := mix64(777 + uint64(pi)*golden64)
		accA, skipA := a.runPass(ea, nil, 1, passKey, 600, movable, window, temp)
		accB, skipB := b.runPass(eb, pool, workers, passKey, 600, b.movable(), window, temp)
		if accA != accB || skipA != skipB {
			t.Fatalf("pass %d: fused (acc=%d skip=%d) vs parallel (acc=%d skip=%d)",
				pi, accA, skipA, accB, skipB)
		}
		for i := range a.Objs {
			if a.Objs[i].X != b.Objs[i].X || a.Objs[i].Y != b.Objs[i].Y {
				t.Fatalf("pass %d: object %d diverged", pi, i)
			}
		}
		checkBoxes(t, b, "parallel pass")
	}
}

// TestPropRNGStreamsDecorrelated guards the stream construction:
// adjacent proposals must not share draws (the raw counter scheme
// without the mix64 avalanche would make proposal m's k-th draw equal
// proposal m+1's (k-1)-th).
func TestPropRNGStreamsDecorrelated(t *testing.T) {
	seen := map[uint64]bool{}
	for m := 0; m < 100; m++ {
		r := propRNG(12345, m)
		for k := 0; k < 8; k++ {
			v := r.next()
			if seen[v] {
				t.Fatalf("duplicate draw %#x across proposal streams", v)
			}
			seen[v] = true
		}
	}
}
