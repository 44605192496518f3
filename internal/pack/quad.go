package pack

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"vpga/internal/cells"
)

// coord is a position in array coordinates (PLB pitch units × pitch).
type coord struct{ x, y float64 }

// region is a rectangle of PLBs [r0,r1) × [c0,c1).
type region struct{ r0, r1, c0, c1 int }

func (r region) plbs() int { return (r.r1 - r.r0) * (r.c1 - r.c0) }

func (r region) contains(p *packer, pt coord) bool {
	c := int(pt.x / p.pitch)
	row := int(pt.y / p.pitch)
	return row >= r.r0 && row < r.r1 && c >= r.c0 && c < r.c1
}

func (r region) center(p *packer) coord {
	return coord{
		x: (float64(r.c0) + float64(r.c1-r.c0)/2) * p.pitch,
		y: (float64(r.r0) + float64(r.r1-r.r0)/2) * p.pitch,
	}
}

// quadrisect recursively partitions objects into PLB regions, moving
// overflow to sibling quadrants (least-critical, least-displacement
// first), and assigns single-PLB regions into assign.
func (p *packer) quadrisect(pos []coord, assign []int) {
	p.quadRec(region{0, p.rows, 0, p.cols}, p.placeable, pos, assign)
}

func (p *packer) quadRec(reg region, objs []int32, pos []coord, assign []int) {
	if len(objs) == 0 {
		return
	}
	if reg.plbs() == 1 {
		idx := reg.r0*p.cols + reg.c0
		for _, o := range objs {
			assign[o] = idx
		}
		return
	}
	// Split the longer side first; quadrants may degenerate to halves
	// for 1-wide regions.
	rm := max((reg.r0+reg.r1)/2, reg.r0+1)
	cm := max((reg.c0+reg.c1)/2, reg.c0+1)
	var quads []region
	for _, q := range []region{
		{reg.r0, rm, reg.c0, cm},
		{reg.r0, rm, cm, reg.c1},
		{rm, reg.r1, reg.c0, cm},
		{rm, reg.r1, cm, reg.c1},
	} {
		if q.r1 > q.r0 && q.c1 > q.c0 && !slices.Contains(quads, q) {
			quads = append(quads, q)
		}
	}
	buckets := make([][]int32, len(quads))
	for _, o := range objs {
		qi := p.nearestQuad(quads, pos[o])
		buckets[qi] = append(buckets[qi], o)
	}
	p.balance(quads, buckets, pos)
	for qi, q := range quads {
		p.quadRec(q, buckets[qi], pos, assign)
	}
}

func (p *packer) nearestQuad(quads []region, pt coord) int {
	for qi, q := range quads {
		if q.contains(p, pt) {
			return qi
		}
	}
	// Outside all (numerical edge): nearest center.
	best, bestD := 0, math.Inf(1)
	for qi, q := range quads {
		c := q.center(p)
		d := math.Hypot(c.x-pt.x, c.y-pt.y)
		if d < bestD {
			best, bestD = qi, d
		}
	}
	return best
}

// evictCand is one eviction candidate with its precomputed sort key.
type evictCand struct {
	obj        int32
	crit, dist float64
}

// balance moves objects out of over-demanded quadrants into feasible
// siblings until every quadrant's aggregate demand fits its supply.
// Move order: least critical first, then smallest displacement.
// Demands are maintained incrementally so large designs avoid
// rescanning buckets per candidate.
func (p *packer) balance(quads []region, buckets [][]int32, pos []coord) {
	demands := make([]cells.Demand, len(quads))
	for qi := range quads {
		demands[qi] = p.roleDemand(buckets[qi])
		if len(buckets[qi]) == 0 {
			// An empty quadrant is charged the whole design's demand, so
			// it receives objects only if it could host the whole design.
			// Kept because the PLB arrays, and so every golden result,
			// depend on it.
			demands[qi] = p.total
		}
	}
	for qi := range quads {
		if p.fits(&demands[qi], quads[qi].plbs()) {
			continue
		}
		// Candidates to evict, cheapest first: least critical, then
		// nearest a sibling boundary (minimal perturbation when moved).
		cands := make([]evictCand, len(buckets[qi]))
		for i, o := range buckets[qi] {
			cands[i] = evictCand{o, p.crit[o], p.boundaryDist(quads[qi], pos[o])}
		}
		sort.SliceStable(cands, func(a, b int) bool {
			if cands[a].crit != cands[b].crit {
				return cands[a].crit < cands[b].crit
			}
			return cands[a].dist < cands[b].dist
		})
		moved := false
		for _, c := range cands {
			o := c.obj
			cfg := p.objCfg[o]
			if cfg == nil {
				continue // absorbed inverters never constrain resources
			}
			if p.fits(&demands[qi], quads[qi].plbs()) {
				break
			}
			// Receiving sibling: nearest center with spare capacity for
			// this object's roles.
			bestQ, bestD := -1, math.Inf(1)
			for qj := range quads {
				if qj == qi {
					continue
				}
				d := demands[qj]
				d.Add(cfg, 1)
				if !p.fits(&d, quads[qj].plbs()) {
					continue
				}
				c := quads[qj].center(p)
				dist := math.Hypot(c.x-pos[o].x, c.y-pos[o].y)
				if dist < bestD {
					bestQ, bestD = qj, dist
				}
			}
			if bestQ < 0 {
				continue // overfull everywhere; the leaf pass will retry globally
			}
			demands[qi].Add(cfg, -1)
			demands[bestQ].Add(cfg, 1)
			p.dest[o] = bestQ
			moved = true
			// Nudge the position toward the receiving region so deeper
			// levels keep it there.
			c := quads[bestQ].center(p)
			pos[o] = coord{(pos[o].x + 2*c.x) / 3, (pos[o].y + 2*c.y) / 3}
		}
		if moved {
			var keep []int32
			for _, o := range buckets[qi] {
				if qj := p.dest[o]; qj >= 0 {
					buckets[qj] = append(buckets[qj], o)
					p.dest[o] = -1
				} else {
					keep = append(keep, o)
				}
			}
			buckets[qi] = keep
		}
	}
}

func (p *packer) boundaryDist(q region, pt coord) float64 {
	left := pt.x - float64(q.c0)*p.pitch
	right := float64(q.c1)*p.pitch - pt.x
	top := pt.y - float64(q.r0)*p.pitch
	bottom := float64(q.r1)*p.pitch - pt.y
	return math.Min(math.Min(left, right), math.Min(top, bottom))
}

func removeObj(xs []int32, o int32) []int32 {
	for i, x := range xs {
		if x == o {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// resolveLeaves enforces per-PLB packing feasibility: every PLB's
// assigned configuration set must fit one PLB; extras spiral outward to
// the nearest PLB with room. Each PLB's role demand is kept
// incrementally as objects leave and arrive.
func (p *packer) resolveLeaves(pos []coord, assign []int) error {
	n := p.rows * p.cols
	occupants := make([][]int32, n) // objects that consume slots
	demand := make([]cells.Demand, n)
	for _, o := range p.placeable {
		if c := p.objCfg[o]; c != nil && assign[o] >= 0 {
			occupants[assign[o]] = append(occupants[assign[o]], o)
			demand[assign[o]].Add(c, 1)
		}
	}
	for plb := 0; plb < n; plb++ {
		if p.fits(&demand[plb], 1) {
			continue
		}
		// Evict least-critical occupants until the remainder fits.
		resObjs := slices.Clone(occupants[plb])
		sort.SliceStable(resObjs, func(a, b int) bool { return p.crit[resObjs[a]] < p.crit[resObjs[b]] })
		var evicted []int32
		for _, o := range resObjs {
			occupants[plb] = removeObj(occupants[plb], o)
			demand[plb].Add(p.objCfg[o], -1)
			evicted = append(evicted, o)
			if p.fits(&demand[plb], 1) {
				break
			}
		}
		for _, o := range evicted {
			cfg := p.objCfg[o]
			target := p.spiralFind(plb, func(cand int) bool {
				d := demand[cand]
				d.Add(cfg, 1)
				return p.fits(&d, 1)
			})
			if target < 0 {
				return fmt.Errorf("pack: PLB array %d×%d cannot host object %d", p.rows, p.cols, o)
			}
			occupants[target] = append(occupants[target], o)
			demand[target].Add(cfg, 1)
			assign[o] = target
		}
	}
	return nil
}

// spiralFind scans PLBs in increasing Chebyshev distance from start
// and returns the first one satisfying ok, or -1.
func (p *packer) spiralFind(start int, ok func(int) bool) int {
	sr, sc := start/p.cols, start%p.cols
	maxR := max(p.rows, p.cols)
	for d := 1; d <= maxR; d++ {
		for r := sr - d; r <= sr+d; r++ {
			if r < 0 || r >= p.rows {
				continue
			}
			for c := sc - d; c <= sc+d; c++ {
				if c < 0 || c >= p.cols {
					continue
				}
				if max(absInt(r-sr), absInt(c-sc)) != d {
					continue
				}
				idx := r*p.cols + c
				if ok(idx) {
					return idx
				}
			}
		}
	}
	return -1
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
