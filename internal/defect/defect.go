// Package defect models fabric manufacturing defects for the VPGA's
// regular array. A via-patterned fabric is printed as a repeating
// tile, so yield loss shows up as localized faults — a PLB whose
// transistors are stuck, a bundle of routing tracks opened by a metal
// break, a via site that will not form — rather than whole-die loss.
// The paper's premise (trade per-gate optimality for manufacturability)
// only pays off if the CAD flow can route around such faults, so the
// defect map is defined on a normalized fabric grid and is consumed by
// both the placer (stuck sites excluded from placement) and the router
// (dead tracks become unusable edges, via faults become detour
// penalties).
//
// Maps are generated from a seed alone: the same (seed, rate, grid)
// always produces the same map, so defect experiments are exactly
// reproducible and parallel sweeps stay deterministic.
package defect

import (
	"fmt"
	"math/rand"
)

// Map is a seeded defect map over a W×H grid of fabric tiles. Queries
// address tiles by normalized coordinates in [0,1), so one map applies
// to any die size or routing-grid resolution.
type Map struct {
	// Seed and Rate record the map's provenance for reports.
	Seed int64
	Rate float64
	// W, H is the defect-grid resolution in tiles.
	W, H int

	stuck []bool // PLB site unusable: no logic may be placed in the tile
	deadH []bool // horizontal routing tracks through the tile are open
	deadV []bool // vertical routing tracks through the tile are open
	via   []bool // via formation unreliable: layer changes are penalized
}

// Counts summarizes a map's defect population.
type Counts struct {
	Stuck, DeadH, DeadV, Via int
}

// DefaultGrid is the tile resolution of New: fine enough that a tile
// approximates a few PLB pitches on the paper-scale arrays, coarse
// enough that single defects stay local.
const DefaultGrid = 16

// New draws a defect map on the default grid. rate is the per-tile
// probability of a stuck site and of a via fault; dead-track faults
// occur at rate/2 per direction (metal opens are rarer than device
// faults in the underlying yield models).
func New(seed int64, rate float64) *Map {
	return NewGrid(seed, rate, DefaultGrid, DefaultGrid)
}

// NewGrid draws a defect map on a w×h tile grid.
func NewGrid(seed int64, rate float64, w, h int) *Map {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	m := &Map{
		Seed: seed, Rate: rate, W: w, H: h,
		stuck: make([]bool, w*h),
		deadH: make([]bool, w*h),
		deadV: make([]bool, w*h),
		via:   make([]bool, w*h),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range m.stuck {
		m.stuck[i] = rng.Float64() < rate
		m.deadH[i] = rng.Float64() < rate/2
		m.deadV[i] = rng.Float64() < rate/2
		m.via[i] = rng.Float64() < rate
	}
	return m
}

// tile maps normalized coordinates to a tile index, clamping so
// queries exactly on the 1.0 boundary land in the last tile.
func (m *Map) tile(xn, yn float64) int {
	x := int(xn * float64(m.W))
	y := int(yn * float64(m.H))
	if x < 0 {
		x = 0
	} else if x >= m.W {
		x = m.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= m.H {
		y = m.H - 1
	}
	return y*m.W + x
}

// Stuck reports whether the tile at normalized (xn, yn) has a stuck
// PLB site (no logic may be placed there).
func (m *Map) Stuck(xn, yn float64) bool {
	if m == nil {
		return false
	}
	return m.stuck[m.tile(xn, yn)]
}

// DeadTrack reports whether the routing tracks crossing the tile at
// normalized (xn, yn) in the given direction are open-circuit.
func (m *Map) DeadTrack(horizontal bool, xn, yn float64) bool {
	if m == nil {
		return false
	}
	if horizontal {
		return m.deadH[m.tile(xn, yn)]
	}
	return m.deadV[m.tile(xn, yn)]
}

// ViaFault reports whether via formation in the tile at normalized
// (xn, yn) is unreliable; routers should prefer detours over layer
// changes there.
func (m *Map) ViaFault(xn, yn float64) bool {
	if m == nil {
		return false
	}
	return m.via[m.tile(xn, yn)]
}

// Counts tallies the map's defects.
func (m *Map) Counts() Counts {
	var c Counts
	if m == nil {
		return c
	}
	for i := range m.stuck {
		if m.stuck[i] {
			c.Stuck++
		}
		if m.deadH[i] {
			c.DeadH++
		}
		if m.deadV[i] {
			c.DeadV++
		}
		if m.via[i] {
			c.Via++
		}
	}
	return c
}

// Total is the map's defect count across all classes.
func (c Counts) Total() int { return c.Stuck + c.DeadH + c.DeadV + c.Via }

// String renders a one-line summary for reports and ledgers.
func (m *Map) String() string {
	if m == nil {
		return "defect: none"
	}
	c := m.Counts()
	return fmt.Sprintf("defect map seed=%d rate=%.3g grid=%dx%d: %d stuck, %d dead-H, %d dead-V, %d via faults",
		m.Seed, m.Rate, m.W, m.H, c.Stuck, c.DeadH, c.DeadV, c.Via)
}
