package core

import "vpga/internal/cells"

// Ticket-level request encoding: the matrix and the granularity sweep
// are composites of independent flow runs, and every one of those runs
// is expressible as a canonical FlowRequest — the same unit POST
// /v1/runs accepts and the content-addressed cache keys. A coordinator
// can therefore ship cells ("tickets") to worker nodes instead of
// whole matrices, steal queued tickets from a dead node, and still
// merge a final result byte-identical to a single-node run, because
// each ticket is a pure function of its request.
//
// The only cross-cell dependency is clock pinning: one cell per
// composite runs first with ClockPeriod 0 and its report derives the
// clock every dependent cell is pinned to. ExecuteMatrix and
// ExecuteSweep own that rule for every composite; the plans below only
// turn their cells into requests, so a ticketed execution and a local
// one produce the same reports cell for cell.

// MatrixDesignNames are the canonical FlowRequest design names of the
// Table 1/2 suite, in the paper's Table 1 order — index-aligned with
// bench.Suite.All() at either scale.
func MatrixDesignNames() []string {
	return []string{"alu", "firewire", "fpu", "switch"}
}

// MatrixArchKinds are the matrix's architecture columns as ArchSpec
// kinds, in RunMatrix's canonical order; MatrixArchNames are the
// resolved cells.PLBArch names keying Matrix.Reports, index-aligned.
func MatrixArchKinds() []string { return []string{"granular", "lut"} }

// MatrixArchNames are the names MatrixArchKinds resolve to
// ("granular-plb", "lut-plb"), spelled out so enumerating cells never
// builds an architecture.
func MatrixArchNames() []string { return []string{"granular-plb", "lut-plb"} }

// MatrixFlows are the matrix's flow columns in canonical order.
func MatrixFlows() []string { return []string{"a", "b"} }

// TicketLabel renders the request's display label — the same
// design/arch/flow shape the daemon uses for job labels — for
// ticket-level scheduling and tracing.
func (r FlowRequest) TicketLabel() string {
	n := r.Normalize()
	return n.Design + n.Name + "/" + n.Arch.Kind + "/flow " + n.Flow
}

// MatrixPlan is the ticket view of one matrix job: the
// result-bearing knobs of a matrix request, from which every cell's
// canonical FlowRequest can be enumerated.
type MatrixPlan struct {
	Scale       string
	Seed        int64
	PlaceEffort int
	// Defect knobs mirror MatrixOptions: a rate of zero means a clean
	// fabric and zeroes the other two.
	DefectRate   float64
	DefectSeed   int64
	RepairBudget int
}

// Ticket assembles the canonical FlowRequest of one of design's cells.
func (p MatrixPlan) Ticket(design string, c Cell) FlowRequest {
	req := FlowRequest{
		Design: design, Scale: p.Scale,
		Arch: ArchSpec{Kind: MatrixArchKinds()[c.Arch]}, Flow: MatrixFlows()[c.Flow],
		Seed: p.Seed, ClockPeriod: c.Clock, PlaceEffort: p.PlaceEffort,
		DefectRate: p.DefectRate, DefectSeed: p.DefectSeed, RepairBudget: p.RepairBudget,
	}
	return req.Normalize()
}

// PinTicket is the design's clock-pinning cell: the granular / flow a
// run at ClockPeriod 0, the cell ExecuteMatrix runs first.
func (p MatrixPlan) PinTicket(design string) FlowRequest {
	return p.Ticket(design, matrixCells(0, 0)[0])
}

// MatrixCell is one dependent cell: its request plus the (arch, flow)
// coordinates it occupies in Matrix.Reports.
type MatrixCell struct {
	ArchName string // Matrix.Reports arch key ("granular-plb", "lut-plb")
	Flow     string // Matrix.Reports flow key ("flow a", "flow b")
	Req      FlowRequest
}

// DependentTickets enumerates the design's three clock-dependent cells
// — every (arch, flow) except the pin — pinned to clock, in canonical
// (arch, flow) order.
func (p MatrixPlan) DependentTickets(design string, clock float64) []MatrixCell {
	var out []MatrixCell
	for _, c := range matrixCells(0, clock)[1:] {
		out = append(out, MatrixCell{
			ArchName: MatrixArchNames()[c.Arch],
			Flow:     c.Flow.String(),
			Req:      p.Ticket(design, c),
		})
	}
	return out
}

// MatrixCellLabel renders a matrix cell's ticket label — the display
// name a coordinator stamps on the cell's scheduling span in a merged
// cluster trace ("ALU/lut-plb/flow b"; the pin ends in " (pin)").
func MatrixCellLabel(design string, c Cell) string {
	label := design + "/" + MatrixArchNames()[c.Arch] + "/" + c.Flow.String()
	if c == matrixCells(c.Design, 0)[0] {
		label += " (pin)"
	}
	return label
}

// SweepPlan is the ticket view of one granularity-sweep job: the
// design block of a sweep request plus its architecture family.
type SweepPlan struct {
	Design string
	Scale  string
	RTL    string
	Name   string
	Seed   int64
	Archs  []ArchSpec
}

// Ticket is the request of one sweep cell: the design run under
// Archs[c.Arch] at c.Clock.
func (p SweepPlan) Ticket(c Cell) FlowRequest {
	req := FlowRequest{
		Design: p.Design, Scale: p.Scale, RTL: p.RTL, Name: p.Name,
		Arch: p.Archs[c.Arch], Flow: MatrixFlows()[c.Flow], Seed: p.Seed, ClockPeriod: c.Clock,
	}
	return req.Normalize()
}

// TicketLabel names the sweep's i-th ticket after its design and
// architecture, for ticket-level scheduling and tracing.
func (p SweepPlan) TicketLabel(i int) string {
	design := p.Design
	if design == "" {
		design = p.Name
	}
	arch := p.Archs[i].Name
	if arch == "" {
		arch = p.Archs[i].Kind
	}
	if arch == "" {
		arch = "default"
	}
	return "sweep/" + design + "/" + arch
}

// SweepPointFrom distills one sweep sample from a cell's report: the
// one report-to-point projection every sweep applies.
func SweepPointFrom(arch *cells.PLBArch, rep *Report) SweepPoint {
	return SweepPoint{
		Arch: arch.Name, Slots: arch.SlotSummary(), PLBArea: arch.Area,
		DieArea: rep.DieArea, AvgTopSlack: rep.AvgTopSlack,
		UsedPLBs: rep.Rows * rep.Cols,
	}
}

// DefaultSweepArchSpecs is the E8 architecture family as serializable
// specs — the declarative source DefaultSweepArchs resolves, and what
// a coordinator ships when a sweep request names no family.
func DefaultSweepArchSpecs() []ArchSpec {
	return []ArchSpec{
		{Kind: "lut"},
		{Kind: "granular"},
		{Kind: "custom", Name: "coarse-lut2", Nand: 1, Lut: 2, FF: 1},
		{Kind: "custom", Name: "fine-mux4", Mux: 3, Xoa: 1, Nand: 1, FF: 1},
		{Kind: "custom", Name: "fine-mux6", Mux: 4, Xoa: 2, Nand: 2, FF: 1},
		{Kind: "custom", Name: "ff-rich", Mux: 2, Xoa: 1, Nand: 1, FF: 2},
	}
}
