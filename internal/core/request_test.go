package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/cells"
)

// TestFlowRequestFieldOrderRoundTrip: the same run described with
// different JSON field orders — and with defaults spelled out versus
// omitted — unmarshals to one cache key, and resolving either document
// produces identical reports after StripMetrics.
func TestFlowRequestFieldOrderRoundTrip(t *testing.T) {
	docs := []string{
		`{"design":"alu","arch":{"kind":"granular"},"flow":"b","seed":5}`,
		`{"seed":5,"flow":"b","arch":{"kind":"granular"},"design":"alu"}`,
		`{"design":"alu","scale":"test","seed":5,"place_effort":6}`,
	}
	var keys []string
	var reports [][]byte
	for _, doc := range docs {
		var req FlowRequest
		if err := json.Unmarshal([]byte(doc), &req); err != nil {
			t.Fatalf("unmarshal %s: %v", doc, err)
		}
		key, err := req.CacheKey()
		if err != nil {
			t.Fatalf("cache key of %s: %v", doc, err)
		}
		keys = append(keys, key)
		rep := runReport(t, req)
		rep.StripMetrics()
		enc, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, enc)
	}
	for i := 1; i < len(docs); i++ {
		if keys[i] != keys[0] {
			t.Errorf("doc %d cache key %s != doc 0 key %s", i, keys[i], keys[0])
		}
		if !bytes.Equal(reports[i], reports[0]) {
			t.Errorf("doc %d report differs from doc 0:\n%s\nvs\n%s", i, reports[i], reports[0])
		}
	}
}

// TestFlowRequestMarshalRoundTrip: marshal → unmarshal preserves the
// cache key, including through normalization.
func TestFlowRequestMarshalRoundTrip(t *testing.T) {
	reqs := []FlowRequest{
		{Design: "firewire", Flow: "a", Seed: 3},
		{Design: "alu", Arch: ArchSpec{Kind: "custom", Mux: 3, Xoa: 1, Nand: 2, FF: 1}, Seed: 9},
		{RTL: "module t(input a, output y); assign y = a; endmodule", Seed: 1},
		{Design: "fir", DefectRate: 0.01, DefectSeed: 42, Seed: 2},
	}
	for _, req := range reqs {
		k1, err := req.CacheKey()
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var back FlowRequest
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		k2, err := back.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Errorf("cache key changed across marshal round-trip: %s vs %s (%s)", k1, k2, enc)
		}
	}
}

// TestFlowRequestNormalizeSemantics: normalization zeroes knobs that
// cannot affect the run and fills defaults, and the knobs that do
// affect the run change the key.
func TestFlowRequestNormalizeSemantics(t *testing.T) {
	key := func(r FlowRequest) string {
		t.Helper()
		k, err := r.CacheKey()
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		return k
	}
	base := FlowRequest{Design: "alu", Seed: 5}

	// Repair knobs on a clean fabric are meaningless.
	if key(base) != key(FlowRequest{Design: "alu", Seed: 5, DefectSeed: 99, RepairBudget: 7}) {
		t.Error("repair knobs changed the key of a clean-fabric run")
	}
	// Name on a named benchmark is meaningless.
	if key(base) != key(FlowRequest{Design: "alu", Seed: 5, Name: "whatever"}) {
		t.Error("display name changed the key of a named benchmark")
	}
	// Explicit RepairBudget 0 means the default budget.
	defective := FlowRequest{Design: "alu", Seed: 5, DefectRate: 0.01}
	explicit := defective
	explicit.RepairBudget = DefaultRepairBudget
	if key(defective) != key(explicit) {
		t.Error("default repair budget not canonicalized")
	}
	// Result-bearing knobs must change the key.
	for name, r := range map[string]FlowRequest{
		"seed":  {Design: "alu", Seed: 6},
		"arch":  {Design: "alu", Seed: 5, Arch: ArchSpec{Kind: "lut"}},
		"flow":  {Design: "alu", Seed: 5, Flow: "a"},
		"scale": {Design: "alu", Seed: 5, Scale: "paper"},
		"rate":  {Design: "alu", Seed: 5, DefectRate: 0.02},
	} {
		if key(base) == key(r) {
			t.Errorf("%s did not change the cache key", name)
		}
	}
}

// TestFlowRequestValidate rejects malformed requests.
func TestFlowRequestValidate(t *testing.T) {
	for name, r := range map[string]FlowRequest{
		"no design":       {},
		"both inputs":     {Design: "alu", RTL: "module t; endmodule"},
		"unknown design":  {Design: "nope"},
		"unknown scale":   {Design: "alu", Scale: "huge"},
		"unknown arch":    {Design: "alu", Arch: ArchSpec{Kind: "mystery"}},
		"empty custom":    {Design: "alu", Arch: ArchSpec{Kind: "custom"}},
		"mux over bound":  {Design: "alu", Arch: ArchSpec{Kind: "custom", Mux: cells.MaxSlots + 1}},
		"negative ff":     {Design: "alu", Arch: ArchSpec{Kind: "custom", Mux: 1, FF: -5}},
		"negative mux":    {Design: "alu", Arch: ArchSpec{Kind: "custom", Mux: -2, Nand: 3}},
		"unknown flow":    {Design: "alu", Flow: "c"},
		"negative effort": {Design: "alu", PlaceEffort: -1},
		"rate too high":   {Design: "alu", DefectRate: 1.0},
	} {
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, r)
		}
		if _, err := r.CacheKey(); err == nil {
			t.Errorf("%s: CacheKey accepted %+v", name, r)
		}
	}
}

// TestCustomArchAtSlotBound: a custom arch with every count at
// cells.MaxSlots resolves, one slot per unit of each count plus the
// four buffers. TestFlowRequestValidate refuses counts outside the
// bound; CustomPLB allocates one slot per unit, so an unbounded count
// is an unbounded allocation when a request is parsed.
func TestCustomArchAtSlotBound(t *testing.T) {
	m := cells.MaxSlots
	arch, err := ArchSpec{Kind: "custom", Mux: m, Xoa: m, Nand: m, Lut: m, FF: m}.Resolve()
	if err != nil {
		t.Fatalf("the bound itself is refused: %v", err)
	}
	if got, want := len(arch.Slots), 5*m+4; got != want {
		t.Fatalf("%d slots, want %d", got, want)
	}
}

// TestDesignTable: ResolveDesign and MatrixSuite serve, at both scales,
// exactly the designs a fresh suite generates; they are generated once
// per process, so a named lookup allocates nothing; and concurrent
// lookups share the table without a race.
func TestDesignTable(t *testing.T) {
	names := []string{"alu", "firewire", "fpu", "switch", "fir"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, scale := range []string{"paper", "test"} {
				for _, name := range names {
					if _, err := ResolveDesign(name, scale, "", ""); err != nil {
						t.Error(err)
					}
				}
				if _, err := MatrixSuite(scale); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	for _, tc := range []struct {
		scale string
		suite bench.Suite
		fir   bench.Design
	}{
		{"test", bench.TestSuite(), bench.FIR(8, 8)},
		{"paper", bench.PaperSuite(), bench.FIR(32, 16)},
	} {
		want := []bench.Design{tc.suite.ALU, tc.suite.Firewire, tc.suite.FPU, tc.suite.Switch, tc.fir}
		for i, name := range names {
			if got, err := ResolveDesign(name, tc.scale, "", ""); err != nil || got != want[i] {
				t.Errorf("%s at %s scale: got %q (%v), want a fresh %q", name, tc.scale, got.Name, err, want[i].Name)
			}
		}
		if got, err := MatrixSuite(tc.scale); err != nil || got != tc.suite {
			t.Errorf("MatrixSuite(%q) differs from a fresh suite (%v)", tc.scale, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { ResolveDesign("switch", tc.scale, "", "") }); allocs != 0 {
			t.Errorf("ResolveDesign at %s scale: %v allocs per call, want 0", tc.scale, allocs)
		}
	}
	if _, err := MatrixSuite("huge"); err == nil {
		t.Error("MatrixSuite accepted an unknown scale")
	}
}

// TestRunRequestRepairLadder: a defect-injecting request goes through
// the supervisor's repair path and is itself deterministic.
func TestRunRequestRepairLadder(t *testing.T) {
	req := FlowRequest{Design: "alu", Seed: 4, DefectRate: 0.02, DefectSeed: 7}
	r1 := runReport(t, req)
	if r1.DefectSummary == "" || len(r1.Attempts) == 0 {
		t.Fatalf("repair request produced no repair evidence: %+v", r1)
	}
	r2 := runReport(t, req)
	r1.StripMetrics()
	r2.StripMetrics()
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if !bytes.Equal(b1, b2) {
		t.Error("repair request is not deterministic across runs")
	}
}

// runReport executes req through Run, failing the test on error.
func runReport(t *testing.T, req FlowRequest) *Report {
	t.Helper()
	res, err := Run(context.Background(), req, ExecOptions{})
	if err != nil {
		t.Fatalf("%s: %v", req.TicketLabel(), err)
	}
	return res.Report
}

// TestCanonicalKeyNamespaces: one payload under two namespaces must
// not collide.
func TestCanonicalKeyNamespaces(t *testing.T) {
	v := struct{ A int }{1}
	k1, err := CanonicalKey("run", v)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CanonicalKey("matrix", v)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("namespaces collide")
	}
}
