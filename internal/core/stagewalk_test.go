package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vpga/internal/artifact"
	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/defect"
	"vpga/internal/faultinject"
	"vpga/internal/obs"
)

// stageWalkPath holds the stage-walk golden: one record per run of
// every case below, taken before RunFlow walked a stage table. A
// mismatch means the flow now runs, caches, restores or fails its
// stages differently.
var stageWalkPath = filepath.Join("testdata", "stagewalk.json")

// stageWalkRecord is one run's entry: the span names in completion
// order, the stage-cache provenance and counters, the SHA-256 of every
// artifact the cache holds afterwards (by stage), and the SHA-256 of
// the stripped report — or the error a failed run returned. A "keys"
// record holds only the case's stage-key chain.
type stageWalkRecord struct {
	Name       string            `json:"name"`
	Keys       []StageKey        `json:"keys,omitempty"`
	Spans      []string          `json:"spans,omitempty"`
	StageCache []StageUse        `json:"stage_cache,omitempty"`
	Counts     StageCacheStats   `json:"counts,omitempty"`
	Artifacts  map[string]string `json:"artifacts,omitempty"`
	Report     string            `json:"report,omitempty"`
	Err        string            `json:"err,omitempty"`
	ErrStage   string            `json:"err_stage,omitempty"`
}

// flowStages is every stage name RunFlow opens a span or a fault
// point for.
var flowStages = []string{"rtl", "synth", "map", "compact", "verify",
	"place", "pack", "viamap", "route", "sta", "power"}

type stageWalkCase struct {
	name string
	d    bench.Design
	cfg  Config
}

// stageWalkCases are the golden's configurations: the test-scale ALU
// on both archs and flows (lut at a fixed clock, so a fully restored
// lut run needs no pre-layout timing), granular flow b on a defect
// map, and FIR(4,4) uncompacted with verification.
func stageWalkCases() []stageWalkCase {
	alu := bench.TestSuite().ALU
	gran, lut := cells.GranularPLB(), cells.LUTPLB()
	base := Config{Seed: 5, PlaceEffort: 2}
	with := func(f func(*Config)) Config {
		c := base
		f(&c)
		return c
	}
	return []stageWalkCase{
		{"alu/granular/a", alu, with(func(c *Config) { c.Arch, c.Flow = gran, FlowA })},
		{"alu/granular/b", alu, with(func(c *Config) { c.Arch, c.Flow = gran, FlowB })},
		{"alu/lut/a@3000", alu, with(func(c *Config) { c.Arch, c.Flow, c.ClockPeriod = lut, FlowA, 3000 })},
		{"alu/lut/b@3000", alu, with(func(c *Config) { c.Arch, c.Flow, c.ClockPeriod = lut, FlowB, 3000 })},
		{"alu/granular/b/defects", alu, with(func(c *Config) {
			c.Arch, c.Flow, c.Defects = gran, FlowB, defect.New(3, 0.02)
		})},
		{"fir44/granular/b/skip+verify", bench.FIR(4, 4), with(func(c *Config) {
			c.Arch, c.Flow, c.SkipCompaction, c.Verify = gran, FlowB, true, true
		})},
	}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// walkRun runs one case against stages (nil: no cache) and records it.
func walkRun(t *testing.T, name string, c stageWalkCase, stages *StageCache, chain []StageKey) stageWalkRecord {
	t.Helper()
	run := obs.NewTracer().NewRun(name)
	cfg := c.cfg
	cfg.Trace, cfg.Stages = run, stages
	rep, _, err := RunFlow(context.Background(), c.d, cfg)
	rec := stageWalkRecord{Name: name}
	for _, sp := range run.Spans() {
		rec.Spans = append(rec.Spans, sp.Stage)
	}
	if stages != nil {
		rec.Counts = stages.Stats()
		rec.Artifacts = map[string]string{}
		for _, sk := range chain {
			if raw, ok := peekStage(stages, sk.Key); ok {
				rec.Artifacts[sk.Stage] = sha(raw)
			}
		}
	}
	if err != nil {
		rec.Err = err.Error()
		var fe *FlowError
		if errors.As(err, &fe) {
			rec.ErrStage = fe.Stage
		}
		return rec
	}
	rec.StageCache = rep.StageCache
	rep.StripMetrics()
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	rec.Report = sha(enc)
	return rec
}

// peekStage reads an artifact without the in-memory tier's hand-over.
func peekStage(c *StageCache, key string) ([]byte, bool) {
	if c.store != nil {
		return c.store.Get(key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.mem[key]
	return raw, ok
}

// storeWith returns a fresh store-backed stage cache holding the given
// artifacts, keyed by stage through chain.
func storeWith(t *testing.T, chain []StageKey, arts map[string][]byte) *StageCache {
	t.Helper()
	st, err := artifact.Open(filepath.Join(t.TempDir(), "stages"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range chain {
		if raw, ok := arts[sk.Stage]; ok {
			if err := st.Put(sk.Key, raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	return NewStageCache(st)
}

// reshaped re-encodes a positions artifact with its object count
// lowered by one; fitting keeps it self-consistent (positions trimmed
// to match), so it decodes and fails only against the problem.
func reshaped(t *testing.T, raw []byte, fitting bool) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["objects"] = m["objects"].(float64) - 1
	if fitting {
		pos := m["positions"].([]any)
		m["positions"] = pos[:len(pos)-2]
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// stageWalk runs every case through every cache state and fault and
// returns the records in a fixed order.
func stageWalk(t *testing.T) []stageWalkRecord {
	t.Helper()
	var recs []stageWalkRecord
	for _, c := range stageWalkCases() {
		chain, err := stageChain(c.d, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		add := func(suffix string, stages *StageCache, cc stageWalkCase) {
			recs = append(recs, walkRun(t, c.name+"/"+suffix, cc, stages, chain))
		}
		recs = append(recs, stageWalkRecord{Name: c.name + "/keys", Keys: chain})
		add("none", nil, c)
		add("mem/cold", newMemStageCache(), c)
		if c.cfg.Flow == FlowB {
			mem := newMemStageCache()
			a := c
			a.cfg.Flow = FlowA
			aChain, err := stageChain(a.d, a.cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, walkRun(t, c.name+"/mem/after-a/a", a, mem, aChain))
			add("mem/after-a/b", mem, c)
		}

		warm := storeWith(t, chain, nil)
		add("store/cold", warm, c)
		add("store/warm", warm, c)
		full := map[string][]byte{}
		for _, sk := range chain {
			raw, ok := warm.store.Get(sk.Key)
			if !ok {
				t.Fatalf("%s: cold run stored no %s artifact", c.name, sk.Stage)
			}
			full[sk.Stage] = raw
		}
		for i, sk := range chain {
			through := map[string][]byte{}
			for _, up := range chain[:i+1] {
				through[up.Stage] = full[up.Stage]
			}
			add("store/through-"+sk.Stage, storeWith(t, chain, through), c)
			add("store/only-"+sk.Stage, storeWith(t, chain, map[string][]byte{sk.Stage: full[sk.Stage]}), c)
			without := map[string][]byte{}
			for _, other := range chain {
				if other.Stage != sk.Stage {
					without[other.Stage] = full[other.Stage]
				}
			}
			add("store/without-"+sk.Stage, storeWith(t, chain, without), c)
		}
		for _, stage := range []string{StagePlace, StagePack} {
			if _, ok := full[stage]; !ok {
				continue
			}
			for _, fitting := range []bool{true, false} {
				bad := map[string][]byte{}
				for k, v := range full {
					bad[k] = v
				}
				bad[stage] = reshaped(t, full[stage], fitting)
				suffix := "store/bad-" + stage
				if !fitting {
					suffix += "-shape"
				}
				add(suffix, storeWith(t, chain, bad), c)
				delete(bad, StageRoute)
				if stage == StagePlace {
					delete(bad, StagePack)
				}
				add(suffix+"-shallow", storeWith(t, chain, bad), c)
			}
		}

		for _, stage := range flowStages {
			faultinject.Enable(faultinject.New(1, 1.0, nil, "stage."+stage))
			add("fault/cold/"+stage, storeWith(t, chain, nil), c)
			add("fault/warm/"+stage, storeWith(t, chain, full), c)
			faultinject.Disable()
		}
	}
	return recs
}

// TestStageWalkGolden runs the stage walk and compares every record
// with the committed golden. Every span must name a stage of
// obs.FlowStageOrder.
func TestStageWalkGolden(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	got := stageWalk(t)
	for _, r := range got {
		for _, s := range r.Spans {
			if !slices.Contains(obs.FlowStageOrder, s) {
				t.Errorf("%s: span %q is not in obs.FlowStageOrder", r.Name, s)
			}
		}
	}
	raw, err := os.ReadFile(stageWalkPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []stageWalkRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	wantBy := map[string]stageWalkRecord{}
	for _, r := range want {
		wantBy[r.Name] = r
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d records, the walk made %d", len(want), len(got))
	}
	for _, r := range got {
		w, ok := wantBy[r.Name]
		if !ok {
			t.Errorf("%s: no golden record", r.Name)
			continue
		}
		g, _ := json.Marshal(r)
		wj, _ := json.Marshal(w)
		if string(g) != string(wj) {
			t.Errorf("%s:\n got %s\nwant %s", r.Name, g, wj)
		}
	}
}
