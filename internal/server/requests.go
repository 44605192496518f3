package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/core"
	"vpga/internal/defect"
	"vpga/internal/obs"
	"vpga/internal/qor"
)

// kind is one row of the kind table: a job kind's name — also the
// namespace of its content addresses — the route that accepts it, its
// request type (parse) and its result type (decode, which revives a
// stored or peer-served result).
type kind struct {
	name   string
	path   string
	parse  func(io.Reader) (jobRequest, error)
	decode func([]byte) (any, error)
}

// The kind table. The HTTP routes, POST /v1/batch and journal replay
// all parse through it, so every daemon accepts and refuses the same
// bodies.
var (
	runKind = &kind{"run", "/v1/runs", parseAs[runRequest], decodeRun}
	kinds   = []*kind{
		runKind,
		{"matrix", "/v1/matrix", parseAs[MatrixRequest], decodeAs[MatrixResult]},
		{"sweep/granularity", "/v1/sweeps/granularity", parseAs[granularitySweep], decodeAs[[]core.SweepPoint]},
		{"sweep/routing", "/v1/sweeps/routing", parseAs[routingSweep], decodeAs[[]core.RoutingPoint]},
	}
)

// jobRequest is a request of one kind.
type jobRequest interface {
	// check validates the request — every rule a worker enforces, so a
	// coordinator refuses the same bodies before dispatching anything —
	// and returns its canonical form (what the content address hashes)
	// and its display label.
	check() (canonical any, label string, err error)
	// runLocal executes the request on this node's flow engine.
	runLocal(ctx context.Context, tr *obs.Tracer, stages *core.StageCache) (any, error)
}

// ledgered is a request whose results carry flow reports: a computed
// result appends their QoR records to the run ledger.
type ledgered interface {
	ledger(res any, key string) []qor.Record
}

// composite is a request the coordinator fans out as per-cell tickets
// through the core executor a single node runs it on, so the merged
// result is byte-identical to a single node's.
type composite interface {
	fanOut(ctx context.Context, run ticketFunc, tr *jobTrace) (any, error)
}

// jobSpec is a parsed, validated request and what the lifecycle
// derives from it.
type jobSpec struct {
	kind  *kind
	req   jobRequest
	key   string
	label string
}

// spec strictly decodes and validates a request body of kind k.
func (k *kind) spec(rd io.Reader) (jobSpec, error) {
	req, err := k.parse(rd)
	if err != nil {
		return jobSpec{}, err
	}
	canonical, label, err := req.check()
	if err != nil {
		return jobSpec{}, err
	}
	key, err := core.CanonicalKey(k.name, canonical)
	if err != nil {
		return jobSpec{}, err
	}
	return jobSpec{kind: k, req: req, key: key, label: label}, nil
}

// parseSpec parses a body of the named kind (journal replay, batch
// items).
func parseSpec(name string, body []byte) (jobSpec, error) {
	for _, k := range kinds {
		if k.name == name {
			return k.spec(bytes.NewReader(body))
		}
	}
	return jobSpec{}, fmt.Errorf("unknown job kind %q", name)
}

func parseAs[T jobRequest](rd io.Reader) (jobRequest, error) {
	var req T
	if err := decodeStrict(rd, &req); err != nil {
		return nil, err
	}
	return req, nil
}

func decodeAs[T any](raw []byte) (any, error) {
	var v T
	err := json.Unmarshal(raw, &v)
	return v, err
}

func decodeRun(raw []byte) (any, error) {
	rep := &core.Report{}
	err := json.Unmarshal(raw, rep)
	return rep, err
}

// runRequest is a POST /v1/runs body: one flow run described by a
// canonical core.FlowRequest.
type runRequest struct{ core.FlowRequest }

func (r runRequest) check() (any, string, error) {
	if err := r.Validate(); err != nil {
		return nil, "", err
	}
	return r.Normalize(), r.TicketLabel(), nil
}

func (r runRequest) runLocal(ctx context.Context, tr *obs.Tracer, stages *core.StageCache) (any, error) {
	run := tr.NewRun(r.TicketLabel())
	defer run.Close()
	res, err := core.Run(ctx, r.FlowRequest, core.ExecOptions{Trace: run, Stages: stages})
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

func (r runRequest) ledger(res any, key string) []qor.Record {
	rep, ok := res.(*core.Report)
	if !ok || rep == nil {
		return nil
	}
	return []qor.Record{qor.FromReport(rep, r.Seed, key)}
}

// MatrixRequest is the serializable description of one Table 1/2
// matrix run (POST /v1/matrix). Like core.FlowRequest it carries only
// result-bearing knobs; Parallel is execution state and is excluded
// from the cache key because matrix reports are bit-identical at any
// worker count.
type MatrixRequest struct {
	// Scale sizes the benchmark suite: "test" (default) or "paper".
	Scale       string `json:"scale,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	PlaceEffort int    `json:"place_effort,omitempty"`
	Parallel    int    `json:"parallel,omitempty"`
	// ContinueOnError keeps the matrix going past failing cells; the
	// failures come back in MatrixResult.Errors.
	ContinueOnError bool `json:"continue_on_error,omitempty"`
	// DefectRate > 0 injects a seeded defect map into every cell and
	// runs defective cells through the repair ladder.
	DefectRate   float64 `json:"defect_rate,omitempty"`
	DefectSeed   int64   `json:"defect_seed,omitempty"`
	RepairBudget int     `json:"repair_budget,omitempty"`
}

func (r MatrixRequest) normalize() MatrixRequest {
	if r.Scale == "" {
		r.Scale = "test"
	}
	if r.DefectRate <= 0 {
		r.DefectRate, r.DefectSeed, r.RepairBudget = 0, 0, 0
	} else if r.RepairBudget == 0 {
		r.RepairBudget = core.DefaultRepairBudget
	}
	return r
}

// check validates the matrix — every rule core.FlowRequest.Validate
// applies to the knobs its cells inherit, since a coordinator keys and
// ships the cells without validating them again — and its canonical
// form zeroes the Parallel knob, which never changes the result.
func (r MatrixRequest) check() (any, string, error) {
	if r.Scale != "" && r.Scale != "test" && r.Scale != "paper" {
		return nil, "", fmt.Errorf("unknown scale %q (want test or paper)", r.Scale)
	}
	if r.PlaceEffort < 0 {
		return nil, "", fmt.Errorf("negative place_effort %d", r.PlaceEffort)
	}
	if r.DefectRate < 0 || r.DefectRate >= 1 {
		return nil, "", fmt.Errorf("defect_rate %g outside [0,1)", r.DefectRate)
	}
	n := r.normalize()
	n.Parallel = 0
	return n, "matrix/" + n.Scale, nil
}

func (r MatrixRequest) runLocal(ctx context.Context, tr *obs.Tracer, stages *core.StageCache) (any, error) {
	n := r.normalize()
	opts := core.MatrixOptions{
		Seed: n.Seed, PlaceEffort: n.PlaceEffort, Parallel: r.Parallel,
		ContinueOnError: n.ContinueOnError, RepairBudget: n.RepairBudget,
		Trace: tr, Stages: stages,
	}
	if n.DefectRate > 0 {
		opts.Defects = defect.New(n.DefectSeed, n.DefectRate)
	}
	suite, err := core.MatrixSuite(n.Scale)
	if err != nil {
		return nil, err
	}
	m, err := core.RunMatrix(ctx, suite, opts)
	if err != nil {
		return nil, err
	}
	return matrixResult(m), nil
}

// fanOut executes the matrix through core.ExecuteMatrix with cells as
// tickets — per design the clock-pinning cell first, then its three
// dependents at once, pinned to the derived clock — so pinning, the
// ledger, the returned error and the merged MatrixResult are the ones
// a single node computes.
func (r MatrixRequest) fanOut(ctx context.Context, run ticketFunc, tr *jobTrace) (any, error) {
	n := r.normalize()
	suite, err := core.MatrixSuite(n.Scale)
	if err != nil {
		return nil, err
	}
	designs := suite.All()
	plan := core.MatrixPlan{
		Scale: n.Scale, Seed: n.Seed, PlaceEffort: n.PlaceEffort,
		DefectRate: n.DefectRate, DefectSeed: n.DefectSeed, RepairBudget: n.RepairBudget,
	}
	m, err := core.ExecuteMatrix(ctx, designs, run.cells(func(c core.Cell) (core.FlowRequest, string) {
		return plan.Ticket(core.MatrixDesignNames()[c.Design], c), core.MatrixCellLabel(designs[c.Design].Name, c)
	}), n.ContinueOnError, nil)
	defer tr.span("merge", map[string]any{"cells": len(designs) * 4})()
	if err != nil {
		return nil, err
	}
	return matrixResult(m), nil
}

// ledger appends every populated cell, keyless (see qor.MatrixRecords).
func (r MatrixRequest) ledger(res any, _ string) []qor.Record {
	m, ok := res.(MatrixResult)
	if !ok {
		return nil
	}
	return qor.MatrixRecords(m.Reports, r.Seed)
}

// MatrixResult is the matrix job payload: every populated report
// (metrics stripped, so the payload is deterministic and cacheable),
// the rendered paper tables and derived claims when the matrix is
// complete, and the error ledger when it is not.
type MatrixResult struct {
	Reports map[string]map[string]map[string]*core.Report `json:"reports"`
	Errors  []string                                      `json:"errors,omitempty"`
	Table1  string                                        `json:"table1,omitempty"`
	Table2  string                                        `json:"table2,omitempty"`
	Claims  *core.Claims                                  `json:"claims,omitempty"`
}

// matrixResult renders a matrix as the payload both daemons serve.
// Wall-clock metrics are stripped so the payload depends only on the
// request: a fresh response, every later cache hit and a coordinator's
// merge serve byte-identical matrices.
func matrixResult(m *core.Matrix) MatrixResult {
	m.StripMetrics()
	res := MatrixResult{Reports: m.Reports}
	for _, fe := range m.Errors {
		res.Errors = append(res.Errors, fe.Error())
	}
	if len(m.Errors) == 0 {
		res.Table1 = m.Table1()
		res.Table2 = m.Table2()
		claims := m.DeriveClaims()
		res.Claims = &claims
	}
	return res
}

// SweepRequest is the serializable description of an exploration
// sweep (POST /v1/sweeps/granularity, POST /v1/sweeps/routing). The
// design block mirrors core.FlowRequest: a named benchmark at a scale,
// or inline RTL under a display name.
type SweepRequest struct {
	Design string `json:"design,omitempty"`
	Scale  string `json:"scale,omitempty"`
	RTL    string `json:"rtl,omitempty"`
	Name   string `json:"name,omitempty"`

	Seed     int64 `json:"seed,omitempty"`
	Parallel int   `json:"parallel,omitempty"`

	// Archs is the granularity sweep's architecture family (empty =
	// the standard DefaultSweepArchs family).
	Archs []core.ArchSpec `json:"archs,omitempty"`
	// Arch and Capacities belong to the routing sweep (defaults:
	// granular PLB; tracks 4, 8, 16, 32, 64).
	Arch       *core.ArchSpec `json:"arch,omitempty"`
	Capacities []int          `json:"capacities,omitempty"`
}

func (r SweepRequest) normalize() SweepRequest {
	if r.RTL != "" {
		r.Scale = ""
		if r.Name == "" {
			r.Name = "inline"
		}
	} else {
		r.Name = ""
		if r.Scale == "" {
			r.Scale = "test"
		}
	}
	if len(r.Archs) > 0 {
		// Copy before normalizing: the slice aliases the caller's request.
		archs := make([]core.ArchSpec, len(r.Archs))
		for i := range r.Archs {
			archs[i] = r.Archs[i].Normalize()
		}
		r.Archs = archs
	}
	if r.Arch != nil {
		a := r.Arch.Normalize()
		r.Arch = &a
	}
	return r
}

// canonical is the sweep's content-addressed form; Parallel is
// execution state and excluded.
func (r SweepRequest) canonical() SweepRequest {
	n := r.normalize()
	n.Parallel = 0
	return n
}

func (r SweepRequest) resolveDesign() (bench.Design, error) {
	n := r.normalize()
	return core.ResolveDesign(n.Design, n.Scale, n.RTL, n.Name)
}

// granularitySweep is a POST /v1/sweeps/granularity body.
type granularitySweep struct{ SweepRequest }

// resolve validates the sweep into its design and its architecture
// family (specs, and the archs they resolve to).
func (r granularitySweep) resolve() (bench.Design, []core.ArchSpec, []*cells.PLBArch, error) {
	d, err := r.resolveDesign()
	if err != nil {
		return d, nil, nil, err
	}
	specs := r.normalize().Archs
	if len(specs) == 0 {
		specs = core.DefaultSweepArchSpecs()
	}
	archs := make([]*cells.PLBArch, len(specs))
	for i, spec := range specs {
		if archs[i], err = spec.Resolve(); err != nil {
			return d, nil, nil, err
		}
	}
	return d, specs, archs, nil
}

func (r granularitySweep) check() (any, string, error) {
	d, _, _, err := r.resolve()
	return r.canonical(), "granularity/" + d.Name, err
}

func (r granularitySweep) runLocal(ctx context.Context, tr *obs.Tracer, stages *core.StageCache) (any, error) {
	d, _, archs, err := r.resolve()
	if err != nil {
		return nil, err
	}
	return core.RunGranularitySweep(ctx, d, archs, core.SweepOptions{
		Seed: r.Seed, Parallel: r.Parallel, Trace: tr, Stages: stages,
	})
}

// fanOut executes the sweep through core.ExecuteSweep with cells as
// tickets — the first architecture pins the clock, the rest run pinned
// at once — so the points and the failure match RunGranularitySweep's.
func (r granularitySweep) fanOut(ctx context.Context, run ticketFunc, tr *jobTrace) (any, error) {
	_, specs, archs, err := r.resolve()
	if err != nil {
		return nil, err
	}
	n := r.normalize()
	plan := core.SweepPlan{Design: n.Design, Scale: n.Scale, RTL: n.RTL, Name: n.Name, Seed: n.Seed, Archs: specs}
	reps, err := core.ExecuteSweep(archs, run.cells(func(c core.Cell) (core.FlowRequest, string) {
		return plan.Ticket(c), plan.TicketLabel(c.Arch)
	}))
	defer tr.span("merge", map[string]any{"cells": len(archs)})()
	if err != nil {
		return nil, err
	}
	pts := make([]core.SweepPoint, len(reps))
	for i, rep := range reps {
		pts[i] = core.SweepPointFrom(archs[i], rep)
	}
	return pts, nil
}

// routingSweep is a POST /v1/sweeps/routing body. Its capacity points
// share one placement, so it is not splittable into pure tickets: a
// coordinator forwards it whole.
type routingSweep struct{ SweepRequest }

// resolve validates the sweep into its design, architecture and
// capacities.
func (r routingSweep) resolve() (bench.Design, *cells.PLBArch, []int, error) {
	d, err := r.resolveDesign()
	if err != nil {
		return d, nil, nil, err
	}
	spec := core.ArchSpec{}
	if r.Arch != nil {
		spec = *r.Arch
	}
	arch, err := spec.Resolve()
	if err != nil {
		return d, nil, nil, err
	}
	capacities := r.Capacities
	if len(capacities) == 0 {
		capacities = []int{4, 8, 16, 32, 64}
	}
	return d, arch, capacities, core.CheckCapacities(capacities)
}

func (r routingSweep) check() (any, string, error) {
	d, _, _, err := r.resolve()
	return r.canonical(), "routing/" + d.Name, err
}

func (r routingSweep) runLocal(ctx context.Context, tr *obs.Tracer, stages *core.StageCache) (any, error) {
	d, arch, capacities, err := r.resolve()
	if err != nil {
		return nil, err
	}
	return core.RunRoutingSweep(ctx, d, arch, capacities, core.SweepOptions{
		Seed: r.Seed, Parallel: r.Parallel, Trace: tr, Stages: stages,
	})
}
