package place

import "math"

// Incremental placement cost kernel: every net of ≥ wideNet pins
// carries a cached bounding box with per-boundary occupancy counts (the
// VPR scheme), so a move proposal costs O(incident nets) instead of
// O(incident pins). A rescan — restricted to the single broken
// boundary — happens only when the sole object holding that boundary
// moves inward, exactly the case where the new boundary is unknowable
// without a scan. Nets of 2 and 3 pins (the bulk) keep only their
// weighted cost: a move reads their HPWL straight from the pin
// positions.
//
// The kernel runs entirely on a flat SoA mirror of the problem —
// contiguous coordinate arrays (x, y), per-net weights (netW), and the
// net↔object adjacency in CSR form (pinIdx/pinOff, objNetIdx/
// objNetOff) — so a boundary scan streams over packed float64/int32
// arrays instead of chasing through 100-byte Obj structs. Obj.X/Y stay
// the external interface: initBoxes resyncs the mirror from them, and
// every committed move writes both.
//
// Boxes and costs store the same float64 coordinates a scratch scan
// would select (boundaries are selections, never arithmetic), so the
// cached cost matches Problem.HPWL() bit for bit; the place tests
// cross-check this invariant after every annealing pass.

// netBox is one net's cached bounding box. The *N fields count how
// many of the net's objects sit exactly on each boundary.
type netBox struct {
	xMin, xMax, yMin, yMax     float64
	xMinN, xMaxN, yMinN, yMaxN int32
}

// hpwl is the box's half-perimeter wirelength.
func (b *netBox) hpwl() float64 {
	return (b.xMax - b.xMin) + (b.yMax - b.yMin)
}

// addPoint folds one object position into the box.
func (b *netBox) addPoint(x, y float64) {
	if x < b.xMin {
		b.xMin, b.xMinN = x, 1
	} else if x == b.xMin {
		b.xMinN++
	}
	if x > b.xMax {
		b.xMax, b.xMaxN = x, 1
	} else if x == b.xMax {
		b.xMaxN++
	}
	if y < b.yMin {
		b.yMin, b.yMinN = y, 1
	} else if y == b.yMin {
		b.yMinN++
	}
	if y > b.yMax {
		b.yMax, b.yMaxN = y, 1
	} else if y == b.yMax {
		b.yMaxN++
	}
}

// updMax adjusts one upper boundary for a coordinate moving old→new.
// It reports false when the sole boundary holder moved inward, which
// requires a rescan.
func updMax(max *float64, n *int32, old, new float64) bool {
	switch {
	case new > *max:
		*max, *n = new, 1
	case new == *max:
		if old != *max {
			*n++
		}
	default: // new < *max
		if old == *max {
			if *n == 1 {
				return false
			}
			*n--
		}
	}
	return true
}

// updMin is the lower-boundary mirror of updMax.
func updMin(min *float64, n *int32, old, new float64) bool {
	switch {
	case new < *min:
		*min, *n = new, 1
	case new == *min:
		if old != *min {
			*n++
		}
	default: // new > *min
		if old == *min {
			if *n == 1 {
				return false
			}
			*n--
		}
	}
	return true
}

// buildCSR packs the net↔object adjacency and the coordinate/weight
// mirrors into the flat SoA arrays the kernel runs on. Build calls it
// once; the adjacency never changes afterwards.
func (p *Problem) buildCSR() {
	p.pinOff = make([]int32, len(p.Nets)+1)
	total := 0
	for ni := range p.Nets {
		p.pinOff[ni] = int32(total)
		total += len(p.Nets[ni].Objs)
	}
	p.pinOff[len(p.Nets)] = int32(total)
	p.pinIdx = make([]int32, total)
	for ni := range p.Nets {
		copy(p.pinIdx[p.pinOff[ni]:], p.Nets[ni].Objs)
	}

	p.objNetOff = make([]int32, len(p.Objs)+1)
	total = 0
	for oi := range p.Objs {
		p.objNetOff[oi] = int32(total)
		total += len(p.Objs[oi].nets)
	}
	p.objNetOff[len(p.Objs)] = int32(total)
	p.objNetIdx = make([]int32, total)
	for oi := range p.Objs {
		copy(p.objNetIdx[p.objNetOff[oi]:], p.Objs[oi].nets)
	}

	p.x = make([]float64, len(p.Objs))
	p.y = make([]float64, len(p.Objs))
	p.netW = make([]float64, len(p.Nets))
	p.syncSoA()
}

// syncSoA refreshes the coordinate and weight mirrors from the
// authoritative Obj/Net fields (which external callers — the packer,
// force-directed passes — mutate directly).
func (p *Problem) syncSoA() {
	for i := range p.Objs {
		p.x[i] = p.Objs[i].X
		p.y[i] = p.Objs[i].Y
	}
	for i := range p.Nets {
		p.netW[i] = p.Nets[i].Weight
	}
}

// objNets returns object oi's incident nets from the CSR adjacency.
func (p *Problem) objNets(oi int32) []int32 {
	return p.objNetIdx[p.objNetOff[oi]:p.objNetOff[oi+1]]
}

// netPins returns net ni's member objects from the CSR adjacency.
func (p *Problem) netPins(ni int32) []int32 {
	return p.pinIdx[p.pinOff[ni]:p.pinOff[ni+1]]
}

// computeBox scans net ni from scratch.
func (p *Problem) computeBox(ni int32) netBox {
	pins := p.netPins(ni)
	first := pins[0]
	x0, y0 := p.x[first], p.y[first]
	b := netBox{
		xMin: x0, xMax: x0, yMin: y0, yMax: y0,
		xMinN: 1, xMaxN: 1, yMinN: 1, yMaxN: 1,
	}
	for _, oi := range pins[1:] {
		b.addPoint(p.x[oi], p.y[oi])
	}
	return b
}

// The scan{X,Y}{Min,Max} quartet recomputes a single boundary of net ni
// with object oi evaluated at a tentative coordinate. A broken boundary
// needs one comparison per pin this way, against eight for a full box
// rebuild, and the other three boundaries stay incremental.

func (p *Problem) scanXMin(ni, oi int32, nx float64) (float64, int32) {
	min, cnt := nx, int32(1)
	for _, oj := range p.netPins(ni) {
		if oj == oi {
			continue
		}
		if v := p.x[oj]; v < min {
			min, cnt = v, 1
		} else if v == min {
			cnt++
		}
	}
	return min, cnt
}

func (p *Problem) scanXMax(ni, oi int32, nx float64) (float64, int32) {
	max, cnt := nx, int32(1)
	for _, oj := range p.netPins(ni) {
		if oj == oi {
			continue
		}
		if v := p.x[oj]; v > max {
			max, cnt = v, 1
		} else if v == max {
			cnt++
		}
	}
	return max, cnt
}

func (p *Problem) scanYMin(ni, oi int32, ny float64) (float64, int32) {
	min, cnt := ny, int32(1)
	for _, oj := range p.netPins(ni) {
		if oj == oi {
			continue
		}
		if v := p.y[oj]; v < min {
			min, cnt = v, 1
		} else if v == min {
			cnt++
		}
	}
	return min, cnt
}

func (p *Problem) scanYMax(ni, oi int32, ny float64) (float64, int32) {
	max, cnt := ny, int32(1)
	for _, oj := range p.netPins(ni) {
		if oj == oi {
			continue
		}
		if v := p.y[oj]; v > max {
			max, cnt = v, 1
		} else if v == max {
			cnt++
		}
	}
	return max, cnt
}

// initBoxes (re)builds every cached box and cost from current
// positions, after refreshing the SoA mirror from the authoritative Obj
// and Net fields. Callers that move objects or reweight nets outside
// the annealing engine (force-directed passes, the packer, the flow's
// net weighting) are absorbed here: Anneal and Refine rebuild on
// entry. boxCostW caches each net's weighted cost (netW·hpwl), so move
// evaluation subtracts a single cached float instead of rebuilding the
// old box; the boxes of nets below wideNet pins are never read again.
func (p *Problem) initBoxes() {
	p.syncSoA()
	if cap(p.boxes) < len(p.Nets) {
		p.boxes = make([]netBox, len(p.Nets))
		p.boxCostW = make([]float64, len(p.Nets))
	}
	p.boxes = p.boxes[:len(p.Nets)]
	p.boxCostW = p.boxCostW[:len(p.Nets)]
	for ni := range p.Nets {
		b := p.computeBox(int32(ni))
		p.boxes[ni] = b
		p.boxCostW[ni] = p.netW[ni] * b.hpwl()
	}
}

// wideNet is the degree from which a net keeps a cached box. Below it
// a cost read straight from the pin positions is cheaper than four
// boundary updates, and keeping a box nothing reads costs a write per
// committed move.
const wideNet = 4

// movedCost returns net ni's weighted cost with object oi moved from
// (ox, oy) to (nx, ny); the object's stored position is never read.
// Nets of 2 and 3 pins select their extremes straight from the pin
// positions: |Δ| of two coordinates and max/min of three pick the
// coordinates computeBox's comparisons select (positions are never NaN
// or −0), so the cost matches it bit for bit. A wide net's box is
// copied into s.boxes and updated there in place: each boundary
// incrementally, a broken one by a rescan. commitSlot installs it on
// acceptance.
func (p *Problem) movedCost(ni, oi int32, ox, oy, nx, ny float64, s *slot) float64 {
	pins := p.netPins(ni)
	switch len(pins) {
	case 2:
		o := pins[0]
		if o == oi {
			o = pins[1]
		}
		return p.netW[ni] * (math.Abs(nx-p.x[o]) + math.Abs(ny-p.y[o]))
	case 3:
		a, b := pins[0], pins[1]
		if a == oi {
			a = pins[2]
		} else if b == oi {
			b = pins[2]
		}
		xa, ya, xb, yb := p.x[a], p.y[a], p.x[b], p.y[b]
		return p.netW[ni] * ((max(nx, xa, xb) - min(nx, xa, xb)) + (max(ny, ya, yb) - min(ny, ya, yb)))
	}
	s.boxes = append(s.boxes, p.boxes[ni])
	nb := &s.boxes[len(s.boxes)-1]
	if !updMin(&nb.xMin, &nb.xMinN, ox, nx) {
		nb.xMin, nb.xMinN = p.scanXMin(ni, oi, nx)
	}
	if !updMax(&nb.xMax, &nb.xMaxN, ox, nx) {
		nb.xMax, nb.xMaxN = p.scanXMax(ni, oi, nx)
	}
	if !updMin(&nb.yMin, &nb.yMinN, oy, ny) {
		nb.yMin, nb.yMinN = p.scanYMin(ni, oi, ny)
	}
	if !updMax(&nb.yMax, &nb.yMaxN, oy, ny) {
		nb.yMax, nb.yMaxN = p.scanYMax(ni, oi, ny)
	}
	return p.netW[ni] * nb.hpwl()
}
