package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/defect"
	"vpga/internal/obs"
)

// ArchSpec is the serializable description of a PLB architecture: the
// named paper architectures ("granular", "lut") or a parameterized
// custom PLB for granularity exploration. It is the declarative
// counterpart of cells.GranularPLB / cells.LUTPLB / cells.CustomPLB,
// so a run description can travel as JSON.
type ArchSpec struct {
	// Kind selects the architecture family: "granular" (default),
	// "lut", or "custom".
	Kind string `json:"kind,omitempty"`
	// Name labels a custom architecture (default "custom"); ignored for
	// the named kinds.
	Name string `json:"name,omitempty"`
	// Custom slot counts (kind "custom" only), each 0 to
	// cells.MaxSlots: 2:1 MUXes, XOA MUXes, ND3WI gates, 3-LUTs and
	// flip-flops.
	Mux  int `json:"mux,omitempty"`
	Xoa  int `json:"xoa,omitempty"`
	Nand int `json:"nand,omitempty"`
	Lut  int `json:"lut,omitempty"`
	FF   int `json:"ff,omitempty"`
}

// Normalize fills defaults and zeroes fields that do not participate
// in the spec's meaning, so equivalent specs share one canonical
// encoding.
func (a ArchSpec) Normalize() ArchSpec {
	if a.Kind == "" {
		a.Kind = "granular"
	}
	if a.Kind != "custom" {
		// Named architectures are fully determined by Kind.
		a.Name = ""
		a.Mux, a.Xoa, a.Nand, a.Lut, a.FF = 0, 0, 0, 0, 0
	} else if a.Name == "" {
		a.Name = "custom"
	}
	return a
}

// Resolve builds the described architecture.
func (a ArchSpec) Resolve() (*cells.PLBArch, error) {
	a = a.Normalize()
	switch a.Kind {
	case "granular":
		return cells.GranularPLB(), nil
	case "lut":
		return cells.LUTPLB(), nil
	case "custom":
		for _, c := range []struct {
			slot string
			n    int
		}{{"mux", a.Mux}, {"xoa", a.Xoa}, {"nand", a.Nand}, {"lut", a.Lut}, {"ff", a.FF}} {
			if c.n < 0 || c.n > cells.MaxSlots {
				return nil, fmt.Errorf("core: custom arch %q: %s count %d outside [0, %d]", a.Name, c.slot, c.n, cells.MaxSlots)
			}
		}
		if a.Mux+a.Xoa+a.Nand+a.Lut == 0 {
			return nil, fmt.Errorf("core: custom arch %q has no combinational slots", a.Name)
		}
		return cells.CustomPLB(a.Name, a.Mux, a.Xoa, a.Nand, a.Lut, a.FF), nil
	default:
		return nil, fmt.Errorf("core: unknown arch kind %q (want granular, lut or custom)", a.Kind)
	}
}

// FlowRequest is the canonical, JSON-serializable description of one
// flow run: which design (a named benchmark or inline RTL), which
// architecture, which flow, and every knob that changes the result.
// It is the unit of the service API (POST /v1/runs) and of the
// content-addressed report cache — CacheKey hashes the normalized
// canonical encoding, so two requests that mean the same run share one
// key regardless of JSON field order or omitted defaults, and a cache
// hit returns a report bit-identical (after StripMetrics) to a fresh
// run, because runs are seed-deterministic by construction.
//
// Wall-clock and observability knobs (tracers, progress callbacks,
// timeouts, annealer worker counts, router state pools) are
// deliberately not part of the request: they never change the report,
// so they live on the transport (server options, ExecOptions,
// Config.PlaceWorkers) instead of the content address.
type FlowRequest struct {
	// Design names a built-in benchmark: "alu", "firewire", "fpu",
	// "switch" or "fir". Mutually exclusive with RTL.
	Design string `json:"design,omitempty"`
	// Scale sizes a named benchmark: "test" (default, fast miniatures)
	// or "paper" (published gate counts).
	Scale string `json:"scale,omitempty"`
	// RTL is inline source in the flow's dialect; Name labels it.
	RTL  string `json:"rtl,omitempty"`
	Name string `json:"name,omitempty"`

	Arch ArchSpec `json:"arch,omitempty"`
	// Flow is "a" (ASIC-style, no packing) or "b" (full PLB array,
	// default).
	Flow string `json:"flow,omitempty"`

	Seed int64 `json:"seed,omitempty"`
	// ClockPeriod in ps; zero auto-derives 1.2x the pre-layout arrival.
	ClockPeriod float64 `json:"clock_period,omitempty"`
	// PlaceEffort scales annealing moves per object (default 6).
	PlaceEffort    int  `json:"place_effort,omitempty"`
	SkipCompaction bool `json:"skip_compaction,omitempty"`
	Verify         bool `json:"verify,omitempty"`

	// DefectRate > 0 injects a seeded defect map and runs the flow
	// through the bounded repair ladder.
	DefectRate float64 `json:"defect_rate,omitempty"`
	DefectSeed int64   `json:"defect_seed,omitempty"`
	// RepairBudget bounds repair escalations (0 = DefaultRepairBudget;
	// meaningful only with DefectRate > 0).
	RepairBudget int `json:"repair_budget,omitempty"`
}

// designTables are the named benchmarks at each scale, generated once
// per process: a bench.Design is immutable strings, so every request
// shares one table instead of regenerating the RTL.
var designTables = map[string]func() map[string]bench.Design{
	"test":  sync.OnceValue(func() map[string]bench.Design { return designTable(bench.TestSuite(), bench.FIR(8, 8)) }),
	"paper": sync.OnceValue(func() map[string]bench.Design { return designTable(bench.PaperSuite(), bench.FIR(32, 16)) }),
}

func designTable(s bench.Suite, fir bench.Design) map[string]bench.Design {
	return map[string]bench.Design{
		"alu": s.ALU, "firewire": s.Firewire, "fpu": s.FPU, "switch": s.Switch,
		"fir": fir,
	}
}

// MatrixSuite is the Table 1/2 suite at a scale: MatrixDesignNames
// resolved as ResolveDesign resolves them, from the same table.
func MatrixSuite(scale string) (bench.Suite, error) {
	var d [4]bench.Design
	for i, name := range MatrixDesignNames() {
		var err error
		if d[i], err = ResolveDesign(name, scale, "", ""); err != nil {
			return bench.Suite{}, err
		}
	}
	return bench.Suite{ALU: d[0], Firewire: d[1], FPU: d[2], Switch: d[3]}, nil
}

// ResolveDesign resolves a (design, scale, rtl, name) quadruple as a
// FlowRequest does: a named benchmark at the given scale, or inline
// RTL under a display name. Shared by the sweep and matrix service
// requests.
func ResolveDesign(design, scale, rtlSrc, name string) (bench.Design, error) {
	if rtlSrc != "" {
		if design != "" {
			return bench.Design{}, fmt.Errorf("core: request names both a benchmark (%q) and inline rtl", design)
		}
		if name == "" {
			name = "inline"
		}
		return bench.Design{Name: name, RTL: rtlSrc}, nil
	}
	if design == "" {
		return bench.Design{}, fmt.Errorf("core: request names no design (set design or rtl)")
	}
	if scale == "" {
		scale = "test"
	}
	table, ok := designTables[scale]
	if !ok {
		return bench.Design{}, fmt.Errorf("core: unknown scale %q (want test or paper)", scale)
	}
	d, ok := table()[design]
	if !ok {
		return bench.Design{}, fmt.Errorf("core: unknown design %q (want alu, firewire, fpu, switch or fir)", design)
	}
	return d, nil
}

// Normalize returns the request with defaults made explicit and
// meaningless knobs zeroed, so every equivalent request has exactly
// one canonical form. CacheKey hashes this form.
func (r FlowRequest) Normalize() FlowRequest {
	if r.RTL != "" {
		// Inline RTL fully determines the design; scale is meaningless.
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
	r.Arch = r.Arch.Normalize()
	if r.Flow == "" {
		r.Flow = "b"
	}
	if r.PlaceEffort == 0 {
		r.PlaceEffort = 6 // RunFlow's default, made explicit
	}
	if r.DefectRate <= 0 {
		// Clean fabric: the repair knobs cannot influence the run.
		r.DefectRate = 0
		r.DefectSeed = 0
		r.RepairBudget = 0
	} else if r.RepairBudget == 0 {
		r.RepairBudget = DefaultRepairBudget
	}
	return r
}

// Validate checks the request without running it.
func (r FlowRequest) Validate() error {
	if _, err := ResolveDesign(r.Design, r.Scale, r.RTL, r.Name); err != nil {
		return err
	}
	if _, err := r.Arch.Resolve(); err != nil {
		return err
	}
	switch r.Flow {
	case "", "a", "b":
	default:
		return fmt.Errorf("core: unknown flow %q (want a or b)", r.Flow)
	}
	if r.PlaceEffort < 0 {
		return fmt.Errorf("core: negative place_effort %d", r.PlaceEffort)
	}
	if r.DefectRate < 0 || r.DefectRate >= 1 {
		return fmt.Errorf("core: defect_rate %g outside [0,1)", r.DefectRate)
	}
	return nil
}

// Resolve validates the request and builds the concrete flow inputs:
// the design and the Config (defect map included, Trace unset).
func (r FlowRequest) Resolve() (bench.Design, Config, error) {
	if err := r.Validate(); err != nil {
		return bench.Design{}, Config{}, err
	}
	n := r.Normalize()
	d, err := ResolveDesign(n.Design, n.Scale, n.RTL, n.Name)
	if err != nil {
		return bench.Design{}, Config{}, err
	}
	arch, err := n.Arch.Resolve()
	if err != nil {
		return bench.Design{}, Config{}, err
	}
	cfg := Config{
		Arch: arch, ClockPeriod: n.ClockPeriod, Seed: n.Seed,
		PlaceEffort: n.PlaceEffort, SkipCompaction: n.SkipCompaction,
		Verify: n.Verify, RepairBudget: n.RepairBudget,
	}
	if n.Flow == "a" {
		cfg.Flow = FlowA
	} else {
		cfg.Flow = FlowB
	}
	if n.DefectRate > 0 {
		cfg.Defects = defect.New(n.DefectSeed, n.DefectRate)
	}
	return d, cfg, nil
}

// CacheKey returns the request's content address: the hex SHA-256 of
// its normalized canonical JSON encoding. Two requests resolve to the
// same key iff they describe the same run, independent of JSON field
// order or spelled-out defaults; seed determinism then guarantees the
// cached report matches a fresh run bit-identically (after
// StripMetrics).
func (r FlowRequest) CacheKey() (string, error) {
	if err := r.Validate(); err != nil {
		return "", err
	}
	return CanonicalKey("run", r.Normalize())
}

// CanonicalKey hashes a namespaced canonical JSON encoding into a
// content address. Go's encoding/json emits struct fields in
// declaration order, so the encoding of a normalized request struct is
// deterministic; the namespace keeps different request kinds (runs,
// matrices, sweeps) from colliding in one cache.
func CanonicalKey(namespace string, v any) (string, error) {
	enc, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("core: canonical encoding: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(namespace))
	h.Write([]byte{0})
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ExecOptions carries the transport-level state a request execution
// may borrow — observation and acceleration, never meaning: a traced,
// cache-backed run's report is bit-identical (after StripMetrics) to a
// bare one, so none of this enters the request or its cache key.
type ExecOptions struct {
	// Trace records the run's stage spans and solver counters.
	Trace *obs.Run
	// Stages is the stage-granular build cache: the run restores the
	// deepest cached prefix of its stage-key chain and stores every
	// computed stage's artifact (see Config.Stages).
	Stages *StageCache
	// WantArtifacts asks Run to return the physical artifacts (netlist,
	// placement, packing, routing) alongside the report. Defect-injected
	// runs go through the repair ladder, which reports without
	// artifacts.
	WantArtifacts bool
}

// RunResult is what Run produces: the report, optionally the physical
// artifacts, and the request's per-stage key chain (the content
// addresses its artifacts live under — for a repair-ladder run, the
// baseline attempt's chain).
type RunResult struct {
	Report    *Report    `json:"report"`
	Artifacts *Artifacts `json:"-"`
	StageKeys []StageKey `json:"stage_keys,omitempty"`
}

// Run is the unified pipeline entry point: it resolves the request,
// executes the staged flow (RunFlow) under the supervisor — panic
// isolation, and the bounded repair ladder when the request injects
// defects — and, when opts.Stages is set, restores the deepest cached
// stage prefix and computes only the suffix.
func Run(ctx context.Context, req FlowRequest, opts ExecOptions) (*RunResult, error) {
	d, cfg, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	cfg.Trace = opts.Trace
	cfg.Stages = opts.Stages
	chain, err := stageChain(d, cfg)
	if err != nil {
		return nil, err
	}
	rep, art, err := supervisedRun(ctx, d, cfg, 0)
	if err != nil {
		return nil, err
	}
	if !opts.WantArtifacts {
		art = nil
	}
	return &RunResult{Report: rep, Artifacts: art, StageKeys: chain}, nil
}
