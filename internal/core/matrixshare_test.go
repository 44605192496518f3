package core

import (
	"context"
	"reflect"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/cells"
)

// TestRunMatrixMatchesColdRuns: a matrix whose flow-b cells restore
// their flow a's compacted netlist and placement must equal, after
// StripMetrics, the matrix assembled from 16 cold runs of the cells
// MatrixPlan enumerates — at any worker count.
func TestRunMatrixMatchesColdRuns(t *testing.T) {
	ctx := context.Background()
	plan := MatrixPlan{Scale: "test", Seed: 7, PlaceEffort: 1}
	cold := func(req FlowRequest) *Report {
		t.Helper()
		res, err := Run(ctx, req, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", req.TicketLabel(), err)
		}
		return res.Report
	}
	want := map[string]map[string]map[string]*Report{}
	for _, design := range MatrixDesignNames() {
		pin := cold(plan.PinTicket(design))
		clock := 1.2 * pin.MaxArrival // the pin rule ExecuteMatrix applies
		pin.Reclock(clock)
		pin.StripMetrics()
		want[pin.Design] = map[string]map[string]*Report{}
		for _, arch := range MatrixArchNames() {
			want[pin.Design][arch] = map[string]*Report{}
		}
		want[pin.Design][MatrixArchNames()[0]]["flow a"] = pin
		for _, cell := range plan.DependentTickets(design, clock) {
			rep := cold(cell.Req)
			rep.StripMetrics()
			want[pin.Design][cell.ArchName][cell.Flow] = rep
		}
	}

	for _, parallel := range []int{1, 4} {
		m, err := RunMatrix(ctx, bench.TestSuite(), MatrixOptions{
			Seed: plan.Seed, PlaceEffort: plan.PlaceEffort, Parallel: parallel,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		m.StripMetrics()
		if !reflect.DeepEqual(m.Reports, want) {
			t.Errorf("parallel=%d: matrix diverged from the cold runs", parallel)
		}
	}
}

// TestRunMatrixAnnealsOncePerArch: with a shared stage cache, a cold
// matrix computes one placement per (design, arch) — 8 place misses —
// and every flow-b cell restores its flow a's.
func TestRunMatrixAnnealsOncePerArch(t *testing.T) {
	stages := NewStageCache(ckptStore(t))
	if _, err := RunMatrix(context.Background(), smallSuite(), MatrixOptions{
		Seed: 7, PlaceEffort: 1, Parallel: 2, Stages: stages,
	}); err != nil {
		t.Fatal(err)
	}
	st := stages.Stats()
	if got := st[StagePlace]; got.Misses != 8 || got.Hits != 8 {
		t.Fatalf("place counters %+v, want 8 misses and 8 hits", got)
	}
	if got := st[StagePack]; got.Misses != 8 || got.Hits != 0 {
		t.Fatalf("pack counters %+v, want 8 misses", got)
	}
}

// TestMemStageCacheKeepsSharedStages: the in-memory tier stores only
// the compact and place artifacts, so a repeated flow-b run restores
// through placement and recomputes pack and route; the restore hands
// both artifacts over.
func TestMemStageCacheKeepsSharedStages(t *testing.T) {
	stages := NewMemStageCache()
	cfg := Config{Arch: cells.GranularPLB(), Flow: FlowB, Seed: 7, PlaceEffort: 1, Stages: stages}
	d := bench.ALU(4)
	first, _, err := RunFlow(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages.mem) != 2 {
		t.Errorf("in-memory tier holds %d artifacts, want 2 (compact, place)", len(stages.mem))
	}
	second, _, err := RunFlow(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits := hitsOf(t, second.StageCache, []string{StageMap, StageCompact, StagePlace, StagePack, StageRoute})
	for stage, want := range map[string]bool{
		StageMap: true, StageCompact: true, StagePlace: true, StagePack: false, StageRoute: false,
	} {
		if hits[stage] != want {
			t.Errorf("stage %s hit=%v, want %v", stage, hits[stage], want)
		}
	}
	if len(stages.mem) != 0 {
		t.Errorf("in-memory tier still holds %d artifacts after the restore", len(stages.mem))
	}
	first.StripMetrics()
	second.StripMetrics()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("restored run diverged from the computed one")
	}
}

// TestMemStageCacheHandsFlowAToFlowB: a flow b after its flow a
// restores map, compact and place from the in-memory tier; the restore
// hands the artifacts over, so a second flow b computes them again.
// All three flow b reports agree.
func TestMemStageCacheHandsFlowAToFlowB(t *testing.T) {
	stages := NewMemStageCache()
	cfg := Config{Arch: cells.LUTPLB(), Flow: FlowA, Seed: 3, PlaceEffort: 1, Stages: stages}
	d := bench.ALU(4)
	if _, _, err := RunFlow(context.Background(), d, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Flow = FlowB
	all := []string{StageMap, StageCompact, StagePlace, StagePack, StageRoute}
	var reps []*Report
	for i, restored := range []bool{true, false} {
		rep, _, err := RunFlow(context.Background(), d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hits := hitsOf(t, rep.StageCache, all)
		for _, stage := range all {
			want := restored && stage != StagePack && stage != StageRoute
			if hits[stage] != want {
				t.Errorf("flow b #%d: stage %s hit=%v, want %v", i+1, stage, hits[stage], want)
			}
		}
		rep.StripMetrics()
		reps = append(reps, rep)
	}
	cold, _, err := RunFlow(context.Background(), d, Config{Arch: cfg.Arch, Flow: FlowB, Seed: 3, PlaceEffort: 1})
	if err != nil {
		t.Fatal(err)
	}
	cold.StripMetrics()
	for i, rep := range reps {
		if !reflect.DeepEqual(rep, cold) {
			t.Errorf("flow b #%d diverged from a run without a stage cache", i+1)
		}
	}
}

// TestMemStageCacheBound: flow-a traffic over three bounds' worth of
// distinct placements never leaves more than memStageBound artifacts in
// the tier, and the newest placement is the one still held.
func TestMemStageCacheBound(t *testing.T) {
	stages := NewMemStageCache()
	d := bench.Design{Name: "tiny", RTL: "module tiny(input a, input b, input c, output y); assign y = (a & b) ^ c; endmodule"}
	cfg := Config{Arch: cells.GranularPLB(), Flow: FlowA, PlaceEffort: 1, Stages: stages}
	for seed := int64(1); seed <= 3*memStageBound; seed++ {
		cfg.Seed = seed
		if _, _, err := RunFlow(context.Background(), d, cfg); err != nil {
			t.Fatal(err)
		}
		if n := len(stages.mem); n > memStageBound || len(stages.order) != n {
			t.Fatalf("after %d placements the tier holds %d artifacts in %d order slots, bound %d",
				seed, n, len(stages.order), memStageBound)
		}
	}
	if len(stages.mem) != memStageBound {
		t.Errorf("the tier holds %d artifacts, want the bound %d", len(stages.mem), memStageBound)
	}
	chain, err := stageChain(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stages.mem[chain[2].Key]; !ok || chain[2].Stage != StagePlace {
		t.Error("the newest placement was evicted")
	}
}

// TestNewStageCacheNil: without a store there is no stage cache; only
// NewMemStageCache makes the in-memory tier.
func TestNewStageCacheNil(t *testing.T) {
	if c := NewStageCache(nil); c != nil {
		t.Fatalf("NewStageCache(nil) = %v, want nil", c)
	}
}
