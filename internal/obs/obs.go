// Package obs is the flow observability layer: a zero-dependency
// (stdlib-only) tracer recording per-stage wall-clock spans and solver
// counters for every flow run, aggregating them across matrix workers,
// and exporting Chrome trace-event JSON plus a per-stage summary
// table.
//
// Everything here is nil-tolerant by design: a nil *Tracer hands out
// nil *Runs, whose methods — and those of the nil *AnnealTrace /
// *RouteTrace they return — all no-op. An un-instrumented flow
// therefore pays exactly one nil check per event site (a stage
// boundary, a temperature pass, a negotiation iteration), and nothing
// at all per annealing move or per router edge relaxation.
//
// Tracing is pure observation: no recorder ever touches a solver's
// RNG, schedule or search order, so a traced run is bit-identical to
// an untraced one (the determinism suite in internal/core asserts
// this).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FlowStageOrder is the canonical ordering of flow stages in summary
// tables and aggregates; stages not listed sort after these,
// alphabetically.
var FlowStageOrder = []string{
	"rtl", "synth", "map", "compact", "verify",
	"place", "pack", "viamap", "route", "sta", "power",
}

func stageRank(stage string) int {
	for i, s := range FlowStageOrder {
		if s == stage {
			return i
		}
	}
	return len(FlowStageOrder)
}

// Span is one recorded stage execution within a run. Start is the
// offset from the tracer's epoch.
type Span struct {
	Stage string
	Start time.Duration
	Dur   time.Duration
}

// StageTiming is a per-stage aggregate: how often the stage ran and
// its total wall time.
type StageTiming struct {
	Stage string
	Count int
	Dur   time.Duration
}

// AnnealPass is one temperature step of the placer's schedule.
type AnnealPass struct {
	Temp               float64
	Proposed, Accepted int
}

// AnnealTrace records the placer's annealing trajectory: one entry per
// temperature pass plus the final cost. The totals are atomic counters
// so readers may snapshot concurrently with a running anneal; the
// annealer itself reports whole passes, never individual moves, so the
// placement hot loop carries no tracing cost.
type AnnealTrace struct {
	proposed, accepted atomic.Int64

	mu        sync.Mutex
	passes    []AnnealPass
	finalCost float64
}

// Pass records one completed temperature pass.
func (a *AnnealTrace) Pass(temp float64, proposed, accepted int) {
	if a == nil {
		return
	}
	a.proposed.Add(int64(proposed))
	a.accepted.Add(int64(accepted))
	a.mu.Lock()
	a.passes = append(a.passes, AnnealPass{Temp: temp, Proposed: proposed, Accepted: accepted})
	a.mu.Unlock()
}

// Final records the post-anneal cost (weighted HPWL).
func (a *AnnealTrace) Final(cost float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.finalCost = cost
	a.mu.Unlock()
}

// Snapshot returns a copy of the recorded trajectory.
func (a *AnnealTrace) Snapshot() (passes []AnnealPass, proposed, accepted int64, finalCost float64) {
	if a == nil {
		return nil, 0, 0, 0
	}
	a.mu.Lock()
	passes = append([]AnnealPass(nil), a.passes...)
	finalCost = a.finalCost
	a.mu.Unlock()
	return passes, a.proposed.Load(), a.accepted.Load(), finalCost
}

// RouteTrace records the router's negotiation trajectory: the total
// overflow after each rip-up-and-reroute iteration and the iteration
// whose snapshot the router kept as its best.
type RouteTrace struct {
	mu        sync.Mutex
	overflows []int
	best      int
}

// Iteration records the overflow remaining after one negotiation
// iteration.
func (r *RouteTrace) Iteration(overflow int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.overflows = append(r.overflows, overflow)
	r.mu.Unlock()
}

// Best records the 1-based iteration whose state the router kept.
func (r *RouteTrace) Best(iter int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.best = iter
	r.mu.Unlock()
}

// Snapshot returns a copy of the recorded trajectory.
func (r *RouteTrace) Snapshot() (overflows []int, best int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.overflows...), r.best
}

// AttemptEvent is one repair-ladder rung: which attempt ran, what it
// escalated, and how it ended (empty Err = success).
type AttemptEvent struct {
	At      time.Duration
	Attempt int
	Action  string
	Err     string
}

// SolverMetrics is the per-run solver counter block surfaced on flow
// reports. It is observability data, wall-clock free but still
// excluded from bit-identical determinism comparisons alongside the
// stage timings (core's shared StripMetrics helper zeroes both).
type SolverMetrics struct {
	// Annealer: temperature passes run, moves proposed/accepted across
	// them, and the final weighted-HPWL cost.
	AnnealPasses    int
	AnnealProposed  int64
	AnnealAccepted  int64
	AnnealFinalCost float64
	// Router: negotiation iterations, the overflow remaining after each
	// one, and the 1-based iteration whose snapshot won.
	RouteIterations    int
	RouteBestIteration int
	RouteOverflows     []int
	// Repair-ladder attempts recorded on this run (0 = never repaired).
	RepairAttempts int
}

// Run is the telemetry of one flow execution: its stage spans, solver
// traces and repair-attempt events, pinned to one worker row of the
// Chrome trace. A nil *Run is valid and records nothing.
type Run struct {
	tr     *Tracer
	label  string
	worker int
	start  time.Duration

	mu       sync.Mutex
	end      time.Duration
	closed   bool
	spans    []Span
	attempts []AttemptEvent
	anneal   AnnealTrace
	route    RouteTrace
}

// Label returns the run's display label (design/arch/flow).
func (r *Run) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// Worker returns the run's worker row in the Chrome trace.
func (r *Run) Worker() int {
	if r == nil {
		return 0
	}
	return r.worker
}

// Stage opens a span for the named flow stage and returns the closure
// that ends it. Usage:
//
//	end := run.Stage("place")
//	... the stage ...
//	end()
func (r *Run) Stage(stage string) func() {
	if r == nil {
		return func() {}
	}
	start := r.tr.since()
	r.tr.publish(Event{Type: "stage_start", Run: r.label, Worker: r.worker,
		Stage: stage, TsUS: Micros(start)})
	return func() {
		d := r.tr.since() - start
		r.mu.Lock()
		r.spans = append(r.spans, Span{Stage: stage, Start: start, Dur: d})
		r.mu.Unlock()
		r.tr.publish(Event{Type: "stage_end", Run: r.label, Worker: r.worker,
			Stage: stage, TsUS: Micros(start + d), DurUS: Micros(d)})
	}
}

// Anneal returns the run's annealer trace (nil for a nil run), for
// wiring into place.Options.
func (r *Run) Anneal() *AnnealTrace {
	if r == nil {
		return nil
	}
	return &r.anneal
}

// Route returns the run's router trace (nil for a nil run), for wiring
// into route.Options.
func (r *Run) Route() *RouteTrace {
	if r == nil {
		return nil
	}
	return &r.route
}

// Attempt records one repair-ladder rung.
func (r *Run) Attempt(attempt int, action, errMsg string) {
	if r == nil {
		return
	}
	at := r.tr.since()
	r.mu.Lock()
	r.attempts = append(r.attempts, AttemptEvent{At: at, Attempt: attempt, Action: action, Err: errMsg})
	r.mu.Unlock()
	r.tr.publish(Event{Type: "attempt", Run: r.label, Worker: r.worker,
		Stage: action, TsUS: Micros(at), Attempt: attempt, Error: errMsg})
}

// Close ends the run and releases its worker row for reuse by the next
// run on the same pool slot. Close is idempotent.
func (r *Run) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.end = r.tr.since()
	end := r.end
	r.mu.Unlock()
	r.tr.release(r.worker)
	r.tr.publish(Event{Type: "run_end", Run: r.label, Worker: r.worker, TsUS: Micros(end)})
}

// Spans returns a copy of the run's recorded spans.
func (r *Run) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Attempts returns a copy of the run's repair-attempt events.
func (r *Run) Attempts() []AttemptEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]AttemptEvent(nil), r.attempts...)
}

// StageTimings aggregates the run's spans by stage, in canonical flow
// order. Under the repair ladder a stage may have run once per
// attempt; Count says how often.
func (r *Run) StageTimings() []StageTiming {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	lists := make([]StageTiming, 0, len(spans))
	for _, s := range spans {
		lists = append(lists, StageTiming{Stage: s.Stage, Count: 1, Dur: s.Dur})
	}
	return Aggregate(lists)
}

// SolverMetrics snapshots the run's solver counters into the report
// block.
func (r *Run) SolverMetrics() *SolverMetrics {
	if r == nil {
		return nil
	}
	m := &SolverMetrics{}
	passes, prop, acc, final := r.anneal.Snapshot()
	m.AnnealPasses = len(passes)
	m.AnnealProposed = prop
	m.AnnealAccepted = acc
	m.AnnealFinalCost = final
	m.RouteOverflows, m.RouteBestIteration = r.route.Snapshot()
	m.RouteIterations = len(m.RouteOverflows)
	r.mu.Lock()
	m.RepairAttempts = len(r.attempts)
	r.mu.Unlock()
	return m
}

// Tracer collects the telemetry of a whole experiment: one Run per
// flow execution. Worker rows are a free list, so concurrent runs map
// onto the pool slots actually in use (row count == peak parallelism),
// giving the Chrome trace one row per worker.
type Tracer struct {
	epoch time.Time

	mu       sync.Mutex
	traceID  string
	runs     []*Run
	freeRows []int // released rows, reused smallest-first
	rows     int   // rows ever created
	// Live event log (see events.go): every run/stage/attempt boundary
	// appends an Event and wakes the registered waiters.
	events  []Event
	waiters []chan struct{}
}

// NewTracer starts a tracer; its epoch is the zero timestamp of every
// span it records.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

func (t *Tracer) since() time.Duration {
	return time.Since(t.epoch)
}

// SetTraceID stamps the tracer with the distributed trace it belongs
// to (the coordinator-minted ID carried in the X-Vpga-Trace header).
// The ID is correlation metadata only: it rides on the Chrome trace's
// process metadata so merged cluster timelines can assert every
// fragment came from one trace, and it never touches spans or events.
func (t *Tracer) SetTraceID(id string) {
	if t == nil || id == "" {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// TraceID returns the distributed trace ID, "" when unset.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// NewRun opens a run on the smallest free worker row. A nil tracer
// returns a nil run, which records nothing.
func (t *Tracer) NewRun(label string) *Run {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var row int
	if n := len(t.freeRows); n > 0 {
		sort.Ints(t.freeRows)
		row = t.freeRows[0]
		t.freeRows = t.freeRows[1:]
	} else {
		row = t.rows
		t.rows++
	}
	r := &Run{tr: t, label: label, worker: row, start: t.since()}
	t.runs = append(t.runs, r)
	t.mu.Unlock()
	t.publish(Event{Type: "run_start", Run: label, Worker: row, TsUS: Micros(r.start)})
	return r
}

func (t *Tracer) release(row int) {
	t.mu.Lock()
	t.freeRows = append(t.freeRows, row)
	t.mu.Unlock()
}

// Runs returns every run opened so far, in creation order.
func (t *Tracer) Runs() []*Run {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Run(nil), t.runs...)
}

// Aggregate merges stage-timing lists (one per span, run or report)
// into per-stage totals, ordered canonically (FlowStageOrder first,
// unknown stages after, alphabetically).
func Aggregate(lists ...[]StageTiming) []StageTiming {
	total := map[string]StageTiming{}
	for _, list := range lists {
		for _, st := range list {
			agg := total[st.Stage]
			agg.Stage = st.Stage
			agg.Count += st.Count
			agg.Dur += st.Dur
			total[st.Stage] = agg
		}
	}
	out := make([]StageTiming, 0, len(total))
	for _, st := range total {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := stageRank(out[i].Stage), stageRank(out[j].Stage)
		if ri != rj {
			return ri < rj
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// StageTotals aggregates span durations by stage across every run —
// the matrix-wide per-stage totals.
func (t *Tracer) StageTotals() []StageTiming {
	if t == nil {
		return nil
	}
	lists := make([][]StageTiming, 0)
	for _, r := range t.Runs() {
		lists = append(lists, r.StageTimings())
	}
	return Aggregate(lists...)
}

// SummaryTable renders the per-stage totals as the stderr summary
// table: spans, total and mean wall time, and each stage's share of
// the traced time.
func (t *Tracer) SummaryTable() string {
	totals := t.StageTotals()
	var sb strings.Builder
	runs := 0
	if t != nil {
		runs = len(t.Runs())
	}
	fmt.Fprintf(&sb, "flow trace: %d run(s)\n", runs)
	fmt.Fprintf(&sb, "  %-10s %6s %12s %12s %7s\n", "stage", "spans", "total", "mean", "share")
	var sum time.Duration
	for _, st := range totals {
		sum += st.Dur
	}
	for _, st := range totals {
		mean := time.Duration(0)
		if st.Count > 0 {
			mean = st.Dur / time.Duration(st.Count)
		}
		share := 0.0
		if sum > 0 {
			share = 100 * float64(st.Dur) / float64(sum)
		}
		fmt.Fprintf(&sb, "  %-10s %6d %12s %12s %6.1f%%\n",
			st.Stage, st.Count, st.Dur.Round(time.Microsecond), mean.Round(time.Microsecond), share)
	}
	fmt.Fprintf(&sb, "  %-10s %6s %12s\n", "sum", "", sum.Round(time.Microsecond))
	return sb.String()
}
