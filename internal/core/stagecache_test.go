package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"vpga/internal/faultinject"
	"vpga/internal/obs"
)

func testStageCache(t *testing.T) *StageCache {
	t.Helper()
	return NewStageCache(ckptStore(t))
}

// runWithStages executes req against the stage cache under a fresh
// trace and returns the stripped report, its pre-strip stage
// provenance, and the run's anneal-proposal count (zero iff the
// placement came from the cache).
func runWithStages(t *testing.T, req FlowRequest, stages *StageCache) (*Report, []StageUse, int64) {
	t.Helper()
	run := obs.NewTracer().NewRun(req.Design + "/" + req.Flow)
	res, err := Run(context.Background(), req, ExecOptions{Trace: run, Stages: stages})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	proposed := run.SolverMetrics().AnnealProposed
	uses := append([]StageUse(nil), res.Report.StageCache...)
	res.Report.StripMetrics()
	return res.Report, uses, proposed
}

// hitsOf flattens stage provenance to stage → hit.
func hitsOf(t *testing.T, uses []StageUse, wantStages []string) map[string]bool {
	t.Helper()
	if len(uses) != len(wantStages) {
		t.Fatalf("stage provenance %v, want stages %v", uses, wantStages)
	}
	out := make(map[string]bool, len(uses))
	for i, u := range uses {
		if u.Stage != wantStages[i] {
			t.Fatalf("stage %d = %q, want %q", i, u.Stage, wantStages[i])
		}
		if u.Key == "" {
			t.Fatalf("stage %s has no key", u.Stage)
		}
		out[u.Stage] = u.Hit
	}
	return out
}

var stageReq = FlowRequest{Design: "alu", Arch: ArchSpec{Kind: "granular"},
	Flow: "b", Seed: 11, PlaceEffort: 2}

// TestStageKeyChain: the per-stage key chain exposes exactly the
// sharing structure the cache exploits — flows a and b share the
// pre-pack prefix, a clock retarget shares through placement, a
// reseed shares through compaction, and compaction knobs split the
// chain right below technology mapping.
func TestStageKeyChain(t *testing.T) {
	chain := func(req FlowRequest) []StageKey {
		t.Helper()
		keys, err := req.StageKeys()
		if err != nil {
			t.Fatalf("StageKeys: %v", err)
		}
		return keys
	}
	sharedPrefix := func(a, b []StageKey) int {
		n := 0
		for n < len(a) && n < len(b) && a[n] == b[n] {
			n++
		}
		return n
	}

	b := chain(stageReq)
	wantB := []string{StageMap, StageCompact, StagePlace, StagePack, StageRoute}
	for i, sk := range b {
		if sk.Stage != wantB[i] {
			t.Fatalf("flow-b chain %v, want stage order %v", b, wantB)
		}
	}
	seen := map[string]bool{}
	for _, sk := range b {
		if seen[sk.Key] {
			t.Fatalf("duplicate key in chain %v", b)
		}
		seen[sk.Key] = true
	}

	flowA := stageReq
	flowA.Flow = "a"
	a := chain(flowA)
	if len(a) != 4 || a[3].Stage != StageRoute {
		t.Fatalf("flow-a chain %v, want map/compact/place/route", a)
	}
	if got := sharedPrefix(a, b); got != 3 {
		t.Fatalf("flows a and b share %d stages, want the pre-pack 3", got)
	}

	clocked := stageReq
	clocked.ClockPeriod = 9000
	if got := sharedPrefix(chain(clocked), b); got != 3 {
		t.Fatalf("clock retarget shares %d stages, want 3 (through place)", got)
	}

	reseeded := stageReq
	reseeded.Seed = 12
	if got := sharedPrefix(chain(reseeded), b); got != 2 {
		t.Fatalf("reseed shares %d stages, want 2 (through compact)", got)
	}

	skip := stageReq
	skip.SkipCompaction = true
	if got := sharedPrefix(chain(skip), b); got != 1 {
		t.Fatalf("skip-compaction shares %d stages, want 1 (map only)", got)
	}

	if _, err := (FlowRequest{}).StageKeys(); err == nil {
		t.Fatal("StageKeys accepted an empty request")
	}
}

// TestStageCacheFullResume: an identical rerun restores the whole
// chain — every stage a hit, the annealer never runs, and the report
// is bit-identical to the cold run's.
func TestStageCacheFullResume(t *testing.T) {
	cold := runReport(t, stageReq)
	cold.StripMetrics()

	stages := testStageCache(t)
	wantStages := []string{StageMap, StageCompact, StagePlace, StagePack, StageRoute}

	first, uses, proposed := runWithStages(t, stageReq, stages)
	if proposed == 0 {
		t.Fatal("first run hit an empty cache")
	}
	for stage, hit := range hitsOf(t, uses, wantStages) {
		if hit {
			t.Fatalf("first run hit stage %s in an empty cache", stage)
		}
	}
	if !reflect.DeepEqual(cold, first) {
		t.Fatalf("cache-backed run diverged from cold run:\ncold %+v\nwarm %+v", cold, first)
	}

	second, uses, proposed := runWithStages(t, stageReq, stages)
	if proposed != 0 {
		t.Fatalf("full resume still annealed (%d proposals)", proposed)
	}
	for stage, hit := range hitsOf(t, uses, wantStages) {
		if !hit {
			t.Fatalf("identical rerun missed stage %s", stage)
		}
	}
	if !reflect.DeepEqual(cold, second) {
		t.Fatalf("resumed run diverged from cold run:\ncold %+v\nhit %+v", cold, second)
	}

	stats := stages.Stats()
	for _, stage := range wantStages {
		if c := stats[stage]; c.Hits != 1 || c.Misses != 1 {
			t.Fatalf("stage %s counters %+v, want 1 hit / 1 miss", stage, c)
		}
	}
}

// TestStageCacheClockRetarget: a request differing only in clock
// target restores the placement (its key excludes the clock) and
// recomputes packing and routing — and still reports bit-identically
// to its own cold run.
func TestStageCacheClockRetarget(t *testing.T) {
	variant := stageReq
	variant.ClockPeriod = 9000
	cold := runReport(t, variant)
	cold.StripMetrics()

	stages := testStageCache(t)
	runWithStages(t, stageReq, stages) // seed the cache at the base clock

	rep, uses, proposed := runWithStages(t, variant, stages)
	if proposed != 0 {
		t.Fatalf("clock retarget re-annealed (%d proposals)", proposed)
	}
	hits := hitsOf(t, uses, []string{StageMap, StageCompact, StagePlace, StagePack, StageRoute})
	want := map[string]bool{StageMap: true, StageCompact: true, StagePlace: true,
		StagePack: false, StageRoute: false}
	if !reflect.DeepEqual(hits, want) {
		t.Fatalf("clock-retarget provenance %v, want %v", hits, want)
	}
	if !reflect.DeepEqual(cold, rep) {
		t.Fatalf("clock-retarget run diverged from its cold run:\ncold %+v\nwarm %+v", cold, rep)
	}
}

// TestStageCacheRouteKnobVariant: a config differing only in routing
// knobs restores everything through packing and only re-routes. The
// route knobs live on Config (the repair ladder's widening rungs), so
// this exercises the Config-level cache attachment.
func TestStageCacheRouteKnobVariant(t *testing.T) {
	d, base, err := stageReq.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	variant := base
	variant.RouteCapacityScale = 1.5

	cold, _, err := RunFlow(context.Background(), d, variant)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	cold.StripMetrics()

	stages := testStageCache(t)
	seeded := base
	seeded.Stages = stages
	if _, _, err := RunFlow(context.Background(), d, seeded); err != nil {
		t.Fatalf("seeding run: %v", err)
	}

	warmCfg := variant
	warmCfg.Stages = stages
	run := obs.NewTracer().NewRun("route-knob")
	warmCfg.Trace = run
	rep, _, err := RunFlow(context.Background(), d, warmCfg)
	run.Close()
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if proposed := run.SolverMetrics().AnnealProposed; proposed != 0 {
		t.Fatalf("route-knob variant re-annealed (%d proposals)", proposed)
	}
	hits := hitsOf(t, rep.StageCache, []string{StageMap, StageCompact, StagePlace, StagePack, StageRoute})
	want := map[string]bool{StageMap: true, StageCompact: true, StagePlace: true,
		StagePack: true, StageRoute: false}
	if !reflect.DeepEqual(hits, want) {
		t.Fatalf("route-knob provenance %v, want %v", hits, want)
	}
	rep.StripMetrics()
	if !reflect.DeepEqual(cold, rep) {
		t.Fatalf("route-knob run diverged from its cold run:\ncold %+v\nwarm %+v", cold, rep)
	}
}

// TestStageCacheTornWrite: torn writes at the artifact store make
// saving best-effort — the interrupted run still reports correctly,
// the next run heals the store by recomputing, and a third run
// finally resumes from clean entries.
func TestStageCacheTornWrite(t *testing.T) {
	cold := runReport(t, stageReq)
	cold.StripMetrics()

	stages := testStageCache(t)
	t.Cleanup(faultinject.Disable)
	faultinject.Enable(faultinject.New(1, 1.0,
		[]faultinject.Kind{faultinject.KindTorn}, "artifact.write"))
	torn, _, _ := runWithStages(t, stageReq, stages)
	if !reflect.DeepEqual(cold, torn) {
		t.Fatal("torn-write run diverged from cold run")
	}
	faultinject.Disable()

	// The torn entries must read as misses, never as wrong artifacts.
	healed, uses, _ := runWithStages(t, stageReq, stages)
	for _, u := range uses {
		if u.Hit {
			t.Fatalf("stage %s restored from a torn write", u.Stage)
		}
	}
	if !reflect.DeepEqual(cold, healed) {
		t.Fatal("healing run diverged from cold run")
	}

	resumed, uses, proposed := runWithStages(t, stageReq, stages)
	if proposed != 0 {
		t.Fatalf("post-heal resume still annealed (%d proposals)", proposed)
	}
	for _, u := range uses {
		if !u.Hit {
			t.Fatalf("post-heal resume missed stage %s", u.Stage)
		}
	}
	if !reflect.DeepEqual(cold, resumed) {
		t.Fatal("post-heal resume diverged from cold run")
	}
}

// TestRunWrapperEquivalence: Run wraps the same pipeline RunFlow runs
// on the resolved Config — same report, bit for bit — and surfaces the
// request's stage-key chain.
func TestRunWrapperEquivalence(t *testing.T) {
	ctx := context.Background()
	res, err := Run(ctx, stageReq, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res.Report.StripMetrics()

	wantKeys, err := stageReq.StageKeys()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.StageKeys, wantKeys) {
		t.Fatalf("Run stage keys %v, want %v", res.StageKeys, wantKeys)
	}

	d, cfg, err := stageReq.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := RunFlow(ctx, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct.StripMetrics()
	if !reflect.DeepEqual(direct, res.Report) {
		t.Fatal("RunFlow and Run reports diverged")
	}
}

// TestSweepSharedStageCache: a granularity sweep over a shared stage
// cache produces byte-identical results to the uncached sweep, and a
// repeat sweep resolves its pre-route stages from cache.
func TestSweepSharedStageCache(t *testing.T) {
	d, _, err := stageReq.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	archs := DefaultSweepArchs()[:2]
	ctx := context.Background()

	plain, err := RunGranularitySweep(ctx, d, archs, SweepOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	stages := testStageCache(t)
	cached, err := RunGranularitySweep(ctx, d, archs, SweepOptions{Seed: 11, Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	encPlain, _ := json.Marshal(plain)
	encCached, _ := json.Marshal(cached)
	if !bytes.Equal(encPlain, encCached) {
		t.Fatalf("cached sweep diverged:\nplain  %s\ncached %s", encPlain, encCached)
	}

	again, err := RunGranularitySweep(ctx, d, archs, SweepOptions{Seed: 11, Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	encAgain, _ := json.Marshal(again)
	if !bytes.Equal(encPlain, encAgain) {
		t.Fatal("repeat cached sweep diverged from plain sweep")
	}
	stats := stages.Stats()
	for _, stage := range []string{StageMap, StageCompact, StagePlace} {
		if stats[stage].Hits == 0 {
			t.Fatalf("repeat sweep never hit stage %s: %+v", stage, stats)
		}
	}
}
