// Package pack legalizes an ASIC-style placement of configuration
// instances into a regular array of PLBs, implementing the paper's
// packing stage (Sec. 3.1): recursive quadrisection, relocating cells
// to regions with available resources under a cost that weighs cell
// criticality and minimizes perturbation of the ASIC placement, run in
// an iterative loop with incremental placement refinement.
package pack

import (
	"fmt"
	"math"

	"vpga/internal/cells"
	"vpga/internal/netlist"
	"vpga/internal/place"
)

// Options tunes the packer.
type Options struct {
	// MaxIterations bounds the pack ⇄ refine loop (default 4).
	MaxIterations int
	// Criticality holds a per-object timing weight (same indexing as
	// the placement problem); more critical objects move last. May be
	// nil.
	Criticality []float64
	Seed        int64
}

// margin is the PLB-count headroom over the resource lower bound when
// sizing the first array tried.
const margin = 1.10

// Result describes the legal PLB array.
type Result struct {
	Rows, Cols int
	// PLBOf maps placement object index to PLB index (row*Cols+col);
	// -1 for pads.
	PLBOf []int
	// DieArea is Rows × Cols × PLB area.
	DieArea float64
	// Perturbation is the mean displacement between the ASIC placement
	// and the final legal positions, in PLB pitches.
	Perturbation float64
	// UsedPLBs counts PLBs hosting at least one instance.
	UsedPLBs int
	// Iterations actually run in the pack ⇄ refine loop.
	Iterations int
}

// Utilization is the fraction of PLBs occupied.
func (r *Result) Utilization() float64 {
	return float64(r.UsedPLBs) / float64(r.Rows*r.Cols)
}

// packer carries one run's state.
type packer struct {
	arch *cells.PLBArch
	nl   *netlist.Netlist
	prob *place.Problem
	opts Options

	// demand per object: the configuration roles it needs inside a PLB
	// (nil for pads and absorbed inverters).
	objCfg    []*cells.Config
	placeable []int32 // every non-pad object
	total     cells.Demand
	crit      []float64
	pitch     float64
	rows      int
	cols      int

	// dest is balance's scratch: the receiving quadrant of each object
	// it moves out of an over-demanded quadrant (-1 when it stays).
	dest []int
}

// Run packs the compacted netlist's placement into the first PLB array
// that legalizes: it tries a square of side ⌈√(1.10·MinPLBs)⌉ first and
// grows the side by one after each failed attempt, up to 12 sizes. The
// placement problem's object positions are updated to the legal PLB
// centers.
func Run(nl *netlist.Netlist, arch *cells.PLBArch, prob *place.Problem, opts Options) (*Result, error) {
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 4
	}
	p := &packer{arch: arch, nl: nl, prob: prob, opts: opts, pitch: math.Sqrt(arch.Area)}
	if err := p.resolveConfigs(); err != nil {
		return nil, err
	}
	p.crit = opts.Criticality
	if p.crit == nil {
		p.crit = make([]float64, len(prob.Objs))
	}

	// The resource lower bound on the PLB count; it fails, before any
	// array is sized, when the arch has no slot for a demanded role.
	p.total = p.roleDemand(p.placeable)
	n, err := arch.MinPLBs(&p.total)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	side := int(math.Ceil(math.Sqrt(float64(n) * margin)))
	for attempt := 0; attempt < 12; attempt++ {
		p.rows, p.cols = side, side
		res, err := p.attempt()
		if err == nil {
			return res, nil
		}
		side++
	}
	return nil, fmt.Errorf("pack: no legal array found up to %d×%d", side-1, side-1)
}

// resolveConfigs binds every placeable object to its configuration
// demand.
func (p *packer) resolveConfigs() error {
	p.objCfg = make([]*cells.Config, len(p.prob.Objs))
	p.dest = make([]int, len(p.prob.Objs))
	for i := range p.prob.Objs {
		p.dest[i] = -1
		o := &p.prob.Objs[i]
		if o.IsPad {
			continue
		}
		p.placeable = append(p.placeable, int32(i))
		n := p.nl.Node(o.Nodes[0])
		switch {
		case n.Kind == netlist.KindDFF:
			p.objCfg[i] = p.arch.Config("FF")
		case n.Type == "INV":
			// Absorbed into the PLB's input polarity rails.
		case n.Type == "BUF":
			// Repeater/fanout buffers occupy the PLB's buffer slots.
			p.objCfg[i] = p.arch.Config("BUF")
		default:
			cfg := p.arch.Config(n.Type)
			if cfg == nil {
				return fmt.Errorf("pack: object %d has unknown configuration %q", i, n.Type)
			}
			p.objCfg[i] = cfg
		}
	}
	return nil
}

// roleDemand tallies role demands over the given objects.
func (p *packer) roleDemand(objs []int32) cells.Demand {
	var d cells.Demand
	for _, i := range objs {
		d.Add(p.objCfg[i], 1)
	}
	return d
}

// fits reports whether n PLBs can host demand d: the aggregate check
// of a quadrant (per-PLB integrality is enforced later at the leaves)
// and, with n = 1, the exact check of one PLB.
func (p *packer) fits(d *cells.Demand, n int) bool {
	ok := p.arch.Fits(d, n)
	if fitsAudit != nil {
		fitsAudit(p.arch, *d, n, ok)
	}
	return ok
}

// fitsAudit, when set by a test, sees every feasibility answer the
// packer acts on, to cross-check it against independent oracles.
// Never set outside tests.
var fitsAudit func(arch *cells.PLBArch, d cells.Demand, n int, ok bool)

// attempt runs the full quadrisection + overflow-resolution loop for
// the current array size.
func (p *packer) attempt() (*Result, error) {
	prob := p.prob
	// Record the ASIC positions for perturbation accounting, scaled to
	// array coordinates.
	asic := make([]coord, len(prob.Objs))
	sx := float64(p.cols) * p.pitch / prob.W
	sy := float64(p.rows) * p.pitch / prob.H
	for i := range prob.Objs {
		asic[i] = coord{prob.Objs[i].X * sx, prob.Objs[i].Y * sy}
	}
	pos := make([]coord, len(asic))
	copy(pos, asic)

	assign := make([]int, len(prob.Objs))
	iter := 0
	for ; iter < p.opts.MaxIterations; iter++ {
		for i := range assign {
			assign[i] = -1
		}
		p.quadrisect(pos, assign)
		if err := p.resolveLeaves(pos, assign); err != nil {
			return nil, err
		}
		// Snap to assigned PLB centers and refine the surviving slack
		// via the placement's local improvement (the paper's iteration
		// with physical synthesis).
		moved := 0.0
		for i := range prob.Objs {
			if prob.Objs[i].IsPad || assign[i] < 0 {
				continue
			}
			cx := (float64(assign[i]%p.cols) + 0.5) * p.pitch
			cy := (float64(assign[i]/p.cols) + 0.5) * p.pitch
			moved += math.Hypot(pos[i].x-cx, pos[i].y-cy)
			pos[i] = coord{cx, cy}
		}
		if moved/p.pitch < 0.5*float64(len(prob.Objs)) {
			iter++
			break
		}
	}

	// Commit: final legal positions into the placement problem.
	perturb := 0.0
	movable := 0
	used := map[int]bool{}
	for i := range prob.Objs {
		o := &prob.Objs[i]
		if o.IsPad {
			continue
		}
		if assign[i] < 0 {
			return nil, fmt.Errorf("pack: object %d unassigned", i)
		}
		cx := (float64(assign[i]%p.cols) + 0.5) * p.pitch
		cy := (float64(assign[i]/p.cols) + 0.5) * p.pitch
		o.X = cx / sx
		o.Y = cy / sy
		perturb += math.Hypot(asic[i].x-cx, asic[i].y-cy) / p.pitch
		movable++
		used[assign[i]] = true
	}
	res := &Result{
		Rows:         p.rows,
		Cols:         p.cols,
		PLBOf:        assign,
		DieArea:      float64(p.rows*p.cols) * p.arch.Area,
		Perturbation: perturb / math.Max(1, float64(movable)),
		UsedPLBs:     len(used),
		Iterations:   iter,
	}
	return res, nil
}
