package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/defect"
	"vpga/internal/obs"
)

// The determinism contract of the observability layer: after the
// shared StripMetrics helper zeroes the metrics block, reports are
// bit-identical with tracing off, tracing on sequential, and tracing
// on across 4 workers.
func TestTracingDeterminism(t *testing.T) {
	suite := smallSuite()
	runM := func(parallel int, tr *obs.Tracer) *Matrix {
		m, err := RunMatrix(context.Background(), suite, MatrixOptions{
			Seed: 7, PlaceEffort: 1, Parallel: parallel, Trace: tr,
		})
		if err != nil {
			t.Fatalf("parallel=%d traced=%v: %v", parallel, tr != nil, err)
		}
		return m
	}
	base := runM(1, nil)
	tr1 := obs.NewTracer()
	traced1 := runM(1, tr1)
	trN := obs.NewTracer()
	tracedN := runM(4, trN)

	// Traced reports carry the metrics block; untraced ones don't.
	for _, m := range []*Matrix{traced1, tracedN} {
		rep := m.Get("ALU", "granular-plb", FlowB)
		if len(rep.Stages) == 0 || rep.Solver == nil {
			t.Fatalf("traced report missing metrics block: stages=%v solver=%v", rep.Stages, rep.Solver)
		}
	}
	if rep := base.Get("ALU", "granular-plb", FlowB); rep.Stages != nil || rep.Solver != nil {
		t.Fatalf("untraced report has a metrics block: %+v", rep)
	}
	for _, byArch := range tracedN.Reports {
		for _, byFlow := range byArch {
			for label, rep := range byFlow {
				if len(rep.Stages) == 0 {
					t.Fatalf("traced %s report %s has no stage timings", rep.Design, label)
				}
			}
		}
	}

	base.StripMetrics()
	traced1.StripMetrics()
	tracedN.StripMetrics()
	if !reflect.DeepEqual(base.Reports, traced1.Reports) {
		t.Fatal("reports diverged between tracing off and on (sequential)")
	}
	if !reflect.DeepEqual(base.Reports, tracedN.Reports) {
		t.Fatal("reports diverged between untraced sequential and traced 4-worker runs")
	}
}

// Every traced run must cover every stage its flow executes, carry
// consistent solver counters, and export as valid Chrome trace JSON
// with one row per pool worker. Each (design, arch) anneals once: its
// flow-a run computes the front end and the placement, and its flow-b
// run restores them from the matrix's in-memory stage tier.
func TestTracingStageCoverage(t *testing.T) {
	suite := smallSuite()
	tr := obs.NewTracer()
	m, err := RunMatrix(context.Background(), suite, MatrixOptions{
		Seed: 7, PlaceEffort: 1, Parallel: 2, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := tr.Runs()
	if want := len(suite.All()) * 4; len(runs) != want {
		t.Fatalf("tracer recorded %d runs, want %d", len(runs), want)
	}
	every := []string{"place", "route", "sta", "power"}
	frontEnd := []string{"rtl", "synth", "map", "compact"}
	computed := map[string][]string{} // design/arch -> labels of runs that annealed
	for _, run := range runs {
		have := map[string]bool{}
		for _, st := range run.StageTimings() {
			have[st.Stage] = true
		}
		flowB := strings.HasSuffix(run.Label(), "flow b")
		want := every
		if flowB {
			want = append(append([]string{}, every...), "pack", "viamap")
		}
		for _, s := range want {
			if !have[s] {
				t.Errorf("run %s missing stage %q (have %v)", run.Label(), s, have)
			}
		}
		sm := run.SolverMetrics()
		annealed := sm.AnnealProposed > 0
		for _, s := range frontEnd {
			if have[s] != annealed {
				t.Errorf("run %s: stage %q present=%v but annealed=%v", run.Label(), s, have[s], annealed)
			}
		}
		if annealed {
			cell := run.Label()[:strings.LastIndex(run.Label(), "/")]
			computed[cell] = append(computed[cell], run.Label())
			if sm.AnnealPasses == 0 || sm.AnnealAccepted == 0 {
				t.Errorf("run %s: empty anneal counters: %+v", run.Label(), sm)
			}
			if sm.AnnealAccepted > sm.AnnealProposed {
				t.Errorf("run %s: accepted %d > proposed %d", run.Label(), sm.AnnealAccepted, sm.AnnealProposed)
			}
		}
		if sm.RouteIterations == 0 || len(sm.RouteOverflows) != sm.RouteIterations {
			t.Errorf("run %s: inconsistent route trajectory: %+v", run.Label(), sm)
		}
		if sm.RouteBestIteration < 1 || sm.RouteBestIteration > sm.RouteIterations {
			t.Errorf("run %s: best iteration %d outside [1,%d]", run.Label(), sm.RouteBestIteration, sm.RouteIterations)
		}
	}
	for _, d := range suite.All() {
		for _, arch := range []string{"granular-plb", "lut-plb"} {
			cell := d.Name + "/" + arch
			if got := computed[cell]; len(got) != 1 || !strings.HasSuffix(got[0], "flow a") {
				t.Errorf("%s: runs that annealed %v, want exactly its flow a", cell, got)
			}
			rep := m.Reports[d.Name][arch]["flow b"]
			hit := map[string]bool{}
			for _, u := range rep.StageCache {
				hit[u.Stage] = u.Hit
			}
			for _, s := range []string{StageMap, StageCompact, StagePlace} {
				if !hit[s] {
					t.Errorf("%s/flow b: stage %s not restored (provenance %+v)", cell, s, rep.StageCache)
				}
			}
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
		Tid  int    `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	rows := map[int]bool{}
	labels := map[string]bool{}
	for _, e := range events {
		if e.Ph == "M" {
			continue
		}
		rows[e.Tid] = true
		if e.Cat == "run" {
			labels[e.Name] = true
		}
	}
	if len(rows) > 2 {
		t.Fatalf("trace uses %d worker rows, want at most Parallel=2", len(rows))
	}
	for _, run := range runs {
		if !labels[run.Label()] {
			t.Errorf("chrome trace missing run event for %s", run.Label())
		}
	}
}

// A traced repair-ladder run records one attempt event per rung and
// refreshes the report's metrics to cover the whole ladder.
func TestTracingRepairAttempts(t *testing.T) {
	tr := obs.NewTracer()
	run := tr.NewRun("ALU/granular-plb/map0")
	d := bench.ALU(4)
	dm := defect.New(3, 0.02)
	rep, err := RunFlowRepair(context.Background(), d, Config{
		Arch: cells.GranularPLB(), Flow: FlowB, Seed: 7, PlaceEffort: 1,
		Defects: dm, Trace: run,
	})
	run.Close()
	if err != nil {
		t.Fatalf("repair flow failed: %v", err)
	}
	attempts := run.Attempts()
	if len(attempts) != len(rep.Attempts) {
		t.Fatalf("tracer has %d attempt events, report ledger has %d", len(attempts), len(rep.Attempts))
	}
	if rep.Solver == nil || rep.Solver.RepairAttempts != len(rep.Attempts) {
		t.Fatalf("report solver block out of sync with ladder: %+v vs %d attempts",
			rep.Solver, len(rep.Attempts))
	}
	last := attempts[len(attempts)-1]
	if last.Err != "" {
		t.Fatalf("winning attempt recorded an error: %+v", last)
	}
}
