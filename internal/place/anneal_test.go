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
	e := p.engine()
	var s slot
	ws := &e.scratch
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

// evalProposal fills slot s for proposal m of a pass, evaluated
// against the current state.
func (p *Problem) evalProposal(passKey uint64, m int, movable []int32, window float64, s *slot, ws *evalScratch) {
	r := propRNG(passKey, m)
	oi, swap, oj := genMove(&r, movable)
	if swap {
		p.evalSwap(&r, oi, oj, s, ws)
	} else {
		p.evalDisplace(&r, oi, window, s)
	}
}

// runPassReference is the batch definition written out without
// runPass's early skip: it evaluates every proposal of a batch against
// the batch-start state, then commits the batch in proposal order,
// skipping a proposal whose nets an earlier accept in the batch moved
// (the conflict check comes before the invalid check, as in runPass).
// It also counts the unconflicted proposals that were invalid.
func (p *Problem) runPassReference(e *engineState, passKey uint64, moves int, movable []int32, window, temp float64) (accepted, skipped, invalid int) {
	slots := make([]slot, annealBatch)
	for base := 0; base < moves; base += annealBatch {
		batch := slots[:min(annealBatch, moves-base)]
		for i := range batch {
			p.evalProposal(passKey, base+i, movable, window, &batch[i], &e.scratch)
		}
		e.batchEp++
		for i := range batch {
			s := &batch[i]
			if p.conflicted(e, s.oi, s.swap, s.oj) {
				skipped++
				continue
			}
			if s.invalid {
				invalid++
				continue
			}
			if p.commitSlot(e, s, temp) {
				accepted++
			}
		}
	}
	return accepted, skipped, invalid
}

// TestRunPassMatchesBatchReference pins runPass's skip-before-evaluate
// to the batch definition: identical pass streams applied to identical
// problems through runPass and runPassReference must leave identical
// positions and identical accept/skip counts, at several temperatures,
// on a clean and on a blocked die.
func TestRunPassMatchesBatchReference(t *testing.T) {
	nl, arch := mappedNetlist(t, src)
	for _, die := range []struct {
		name    string
		blocked func(xn, yn float64) bool
	}{
		{"clean", nil},
		{"blocked", goldenBlocked},
	} {
		build := func() *Problem {
			p, err := Build(nl, ArchArea(arch), Options{Seed: 33, Blocked: die.blocked})
			if err != nil {
				t.Fatal(err)
			}
			p.initBoxes()
			return p
		}
		a, b := build(), build()
		ea, eb := a.engine(), b.engine()
		window := math.Max(a.W, a.H) * 0.2
		invalid := 0
		for pi, temp := range []float64{50, 5, 0.5, 1e-9} {
			passKey := mix64(777 + uint64(pi)*golden64)
			accA, skipA := a.runPass(ea, passKey, 600, a.movable(), window, temp)
			accB, skipB, inv := b.runPassReference(eb, passKey, 600, b.movable(), window, temp)
			if accA != accB || skipA != skipB {
				t.Fatalf("%s pass %d: runPass (acc=%d skip=%d) vs reference (acc=%d skip=%d)",
					die.name, pi, accA, skipA, accB, skipB)
			}
			for i := range a.Objs {
				if a.Objs[i].X != b.Objs[i].X || a.Objs[i].Y != b.Objs[i].Y {
					t.Fatalf("%s pass %d: object %d diverged", die.name, pi, i)
				}
			}
			checkBoxes(t, a, "runPass")
			checkBoxes(t, b, "reference pass")
			if skipA == 0 {
				t.Fatalf("%s pass %d: no proposal was conflict-skipped", die.name, pi)
			}
			invalid += inv
		}
		if die.blocked != nil && invalid == 0 {
			t.Fatalf("%s: no unconflicted proposal was invalid", die.name)
		}
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
