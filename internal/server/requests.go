package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/core"
	"vpga/internal/defect"
	"vpga/internal/obs"
	"vpga/internal/qor"
)

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

func (r MatrixRequest) validate() error {
	if r.Scale != "" && r.Scale != "test" && r.Scale != "paper" {
		return fmt.Errorf("unknown scale %q (want test or paper)", r.Scale)
	}
	if r.DefectRate < 0 || r.DefectRate >= 1 {
		return fmt.Errorf("defect_rate %g outside [0,1)", r.DefectRate)
	}
	return nil
}

// cacheKey is the request's content address; the Parallel knob is
// zeroed first because it never changes the result.
func (r MatrixRequest) cacheKey() (string, error) {
	n := r.normalize()
	n.Parallel = 0
	return core.CanonicalKey("matrix", n)
}

func (r MatrixRequest) suite() bench.Suite {
	if r.normalize().Scale == "paper" {
		return bench.PaperSuite()
	}
	return bench.TestSuite()
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

// buildJob rebuilds a job of the given kind from its canonical JSON
// body. It is the one constructor both paths share: the HTTP handlers
// (which journal the body on acceptance) and journal replay (which
// reads it back after a crash) — so a replayed job is the submitted
// job, not an approximation of it.
func (s *Server) buildJob(kind string, body []byte) (*job, error) {
	switch kind {
	case "run":
		var req core.FlowRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("request body: %w", err)
		}
		return s.buildRunJob(req)
	case "matrix":
		var req MatrixRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("request body: %w", err)
		}
		return s.buildMatrixJob(req)
	case "sweep/granularity":
		var req SweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("request body: %w", err)
		}
		return s.buildGranularitySweepJob(req)
	case "sweep/routing":
		var req SweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("request body: %w", err)
		}
		return s.buildRoutingSweepJob(req)
	}
	return nil, fmt.Errorf("unknown job kind %q", kind)
}

// setBody stamps the job's canonical journal body; a failure leaves
// body nil, which simply makes the job non-journaled (and therefore
// lost to a crash — never wrong).
func (j *job) setBody(req any) {
	if enc, err := json.Marshal(req); err == nil {
		j.body = enc
	}
}

// buildRunJob validates a flow-run request and assembles its job.
func (s *Server) buildRunJob(req core.FlowRequest) (*job, error) {
	key, err := req.CacheKey()
	if err != nil {
		return nil, err
	}
	n := req.Normalize()
	label := n.Design + n.Name + "/" + n.Arch.Kind + "/flow " + n.Flow
	j := s.newJob("run", key, label, func(ctx context.Context, tr *obs.Tracer) (any, error) {
		run := tr.NewRun(label)
		defer run.Close()
		res, err := core.Run(ctx, req, core.ExecOptions{
			Trace: run, Stages: s.stages,
		})
		if err != nil {
			return nil, err
		}
		return res.Report, nil
	})
	// The stage-key chain is derivable from the request alone, so it is
	// available on the job from acceptance — even for cache hits that
	// never execute.
	if keys, err := req.StageKeys(); err == nil {
		j.stageKeys = keys
	}
	// Cache a metrics-stripped deep clone: wall-clock artifacts are
	// execution state, not content, and the cache must never alias a
	// report already handed to a response encoder.
	j.cachePrep = func(v any) any {
		rep := v.(*core.Report).Clone()
		rep.StripMetrics()
		return rep
	}
	j.ledger = func(v any) []qor.Record {
		rep, ok := v.(*core.Report)
		if !ok || rep == nil {
			return nil
		}
		return []qor.Record{qor.FromReport(rep, n.Seed, key)}
	}
	j.setBody(req)
	return j, nil
}

// buildMatrixJob validates a matrix request and assembles its job.
func (s *Server) buildMatrixJob(req MatrixRequest) (*job, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	key, err := req.cacheKey()
	if err != nil {
		return nil, err
	}
	n := req.normalize()
	j := s.newJob("matrix", key, "matrix/"+n.Scale, func(ctx context.Context, tr *obs.Tracer) (any, error) {
		opts := core.MatrixOptions{
			Seed: n.Seed, PlaceEffort: n.PlaceEffort, Parallel: req.Parallel,
			ContinueOnError: n.ContinueOnError, RepairBudget: n.RepairBudget,
			Trace: tr, Stages: s.stages,
		}
		if n.DefectRate > 0 {
			opts.Defects = defect.New(n.DefectSeed, n.DefectRate)
		}
		m, err := core.RunMatrix(ctx, req.suite(), opts)
		if err != nil {
			return nil, err
		}
		return matrixResult(m), nil
	})
	// Matrix cells are not request-shaped (RunMatrix pins clocks across
	// flows), so their ledger records carry no cache key.
	j.ledger = func(v any) []qor.Record {
		res, ok := v.(MatrixResult)
		if !ok {
			return nil
		}
		var recs []qor.Record
		for _, archs := range res.Reports {
			for _, flows := range archs {
				for _, rep := range flows {
					if rep != nil {
						recs = append(recs, qor.FromReport(rep, n.Seed, ""))
					}
				}
			}
		}
		sort.Slice(recs, func(i, k int) bool { return recs[i].ID() < recs[k].ID() })
		return recs
	}
	j.setBody(req)
	return j, nil
}

// handleRun serves POST /v1/runs: one flow run described by a
// canonical core.FlowRequest.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req core.FlowRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.buildRunJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.dispatch(w, r, j)
}

// handleMatrix serves POST /v1/matrix.
func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.buildMatrixJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.dispatch(w, r, j)
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

// cacheKey content-addresses the sweep under its endpoint's namespace;
// Parallel is execution state and excluded.
func (r SweepRequest) cacheKey(namespace string) (string, error) {
	n := r.normalize()
	n.Parallel = 0
	return core.CanonicalKey(namespace, n)
}

func (r SweepRequest) resolveDesign() (bench.Design, error) {
	n := r.normalize()
	return core.ResolveDesign(n.Design, n.Scale, n.RTL, n.Name)
}

// buildGranularitySweepJob validates a granularity-sweep request and
// assembles its job.
func (s *Server) buildGranularitySweepJob(req SweepRequest) (*job, error) {
	d, err := req.resolveDesign()
	if err != nil {
		return nil, err
	}
	archs := core.DefaultSweepArchs()
	if len(req.Archs) > 0 {
		archs = make([]*cells.PLBArch, len(req.Archs))
		for i, spec := range req.Archs {
			if archs[i], err = spec.Resolve(); err != nil {
				return nil, err
			}
		}
	}
	key, err := req.cacheKey("sweep/granularity")
	if err != nil {
		return nil, err
	}
	j := s.newJob("sweep/granularity", key, "sweep/"+d.Name, func(ctx context.Context, tr *obs.Tracer) (any, error) {
		return core.RunGranularitySweep(ctx, d, archs, core.SweepOptions{
			Seed: req.Seed, Parallel: req.Parallel, Trace: tr, Stages: s.stages,
		})
	})
	j.setBody(req)
	return j, nil
}

// buildRoutingSweepJob validates a routing-sweep request and
// assembles its job.
func (s *Server) buildRoutingSweepJob(req SweepRequest) (*job, error) {
	d, err := req.resolveDesign()
	if err != nil {
		return nil, err
	}
	spec := core.ArchSpec{}
	if req.Arch != nil {
		spec = *req.Arch
	}
	arch, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	capacities := req.Capacities
	if len(capacities) == 0 {
		capacities = []int{4, 8, 16, 32, 64}
	}
	for _, c := range capacities {
		if c < 1 {
			return nil, fmt.Errorf("capacity %d < 1", c)
		}
	}
	key, err := req.cacheKey("sweep/routing")
	if err != nil {
		return nil, err
	}
	j := s.newJob("sweep/routing", key, "routing/"+d.Name, func(ctx context.Context, tr *obs.Tracer) (any, error) {
		return core.RunRoutingSweep(ctx, d, arch, capacities, core.SweepOptions{
			Seed: req.Seed, Parallel: req.Parallel, Trace: tr, Stages: s.stages,
		})
	})
	j.setBody(req)
	return j, nil
}

// handleGranularitySweep serves POST /v1/sweeps/granularity.
func (s *Server) handleGranularitySweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.buildGranularitySweepJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.dispatch(w, r, j)
}

// handleRoutingSweep serves POST /v1/sweeps/routing.
func (s *Server) handleRoutingSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.buildRoutingSweepJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.dispatch(w, r, j)
}

// decodeStored revives a persisted result payload as the live value
// its kind serves — the inverse of the JSON encoding persistResult
// stored. Any decode failure is a miss (the store's contract: corrupt
// or unreadable entries are recomputed, never fatal).
func decodeStored(kind string, raw []byte) (any, bool) {
	var (
		v   any
		err error
	)
	switch kind {
	case "run":
		rep := &core.Report{}
		err = json.Unmarshal(raw, rep)
		v = rep
	case "matrix":
		var m MatrixResult
		err = json.Unmarshal(raw, &m)
		v = m
	case "sweep/granularity":
		var pts []core.SweepPoint
		err = json.Unmarshal(raw, &pts)
		v = pts
	case "sweep/routing":
		var pts []core.RoutingPoint
		err = json.Unmarshal(raw, &pts)
		v = pts
	default:
		return nil, false
	}
	if err != nil {
		return nil, false
	}
	return v, true
}
