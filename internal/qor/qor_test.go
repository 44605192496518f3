package qor

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vpga/internal/core"
	"vpga/internal/faultinject"
	"vpga/internal/obs"
)

// sampleRecord is a fully-populated record for schema tests.
func sampleRecord() Record {
	return Record{
		Schema: SchemaVersion,
		Bench:  "alu", Arch: "granular-plb", Flow: "flow b", Seed: 7, Key: "abc123",
		Gates: 1234.5, DieArea: 5678.9, PLBs: 144, Utilization: 0.81,
		DelayPS: 2101.25, WorstSlackPS: -12.5, Wirelength: 4040.25, Overflow: 0,
		ChannelTracks: 24, PeakTrackDemand: 19.5, PowerUW: 321.125,
		RepairAttempts: 2, Yield: 0.96,
		Time: "2026-08-05T00:00:00Z", GitRev: "deadbee",
		RuntimeSeconds: 1.25,
		StageSeconds:   map[string]float64{"place": 0.5, "route": 0.25},
		MovesPerSec:    2.5e6,
	}
}

// TestLedgerRoundTrip: Append then Read reproduces every field of
// every record, across multiple appends to the same file.
func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "ledger.jsonl")
	first := sampleRecord()
	second := sampleRecord()
	second.Seed = 8
	second.Yield = 0
	second.StageSeconds = nil
	if err := Append(path, first); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if err := Append(path, second); err != nil {
		t.Fatalf("append 2: %v", err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	want := []Record{first, second}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestLedgerReadErrors: mid-file corruption and future schemas are
// named errors, blank lines are skipped.
func TestLedgerReadErrors(t *testing.T) {
	// A bad line with a valid line after it is mid-file corruption,
	// not a crash artifact: still fatal, naming the line.
	bad := `{"schema":1,"bench":"a"` + "\n" + `{"schema":1,"bench":"b","arch":"x","flow":"a"}`
	if _, err := ReadAll(strings.NewReader(bad)); err == nil {
		t.Fatal("mid-file corruption passed")
	} else if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("corruption error does not name the line: %v", err)
	}
	if _, err := ReadAll(strings.NewReader(`{"schema":99,"bench":"a","arch":"x","flow":"a"}`)); err == nil {
		t.Fatal("future schema passed")
	}
	recs, err := ReadAll(strings.NewReader("\n" + `{"schema":1,"bench":"a","arch":"x","flow":"a","seed":1}` + "\n\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("blank-line ledger: %v (%d records)", err, len(recs))
	}
	// Unknown fields from a same-schema writer are tolerated.
	if _, err := ReadAll(strings.NewReader(`{"schema":1,"bench":"a","arch":"x","flow":"a","later_field":1}`)); err != nil {
		t.Fatalf("unknown field rejected: %v", err)
	}
}

// TestLedgerTornTail: a truncated final line — the artifact of a
// crash mid-append — is skipped with diagnostics instead of failing
// the read; the preceding complete records survive.
func TestLedgerTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	first := sampleRecord()
	second := sampleRecord()
	second.Seed = 8
	second.Yield = 0
	second.StageSeconds = nil
	if err := Append(path, first, second); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Tear the tail: re-append a record, then chop the file mid-line.
	third := sampleRecord()
	third.Seed = 9
	if err := Append(path, third); err != nil {
		t.Fatalf("append 3: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(bytes.TrimRight(raw, "\n"), '\n')
	torn := raw[:cut+1+20] // keep 20 bytes of the final line
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := ReadStatsFile(path)
	if err != nil {
		t.Fatalf("torn tail failed the read: %v", err)
	}
	if want := []Record{first, second}; !reflect.DeepEqual(recs, want) {
		t.Fatalf("torn-tail records:\ngot  %+v\nwant %+v", recs, want)
	}
	if !stats.TornTail || stats.TornLine != 3 || stats.TornErr == "" {
		t.Fatalf("torn-tail stats not surfaced: %+v", stats)
	}
	// Read (the plain loader) tolerates it too.
	if recs, err := Read(path); err != nil || len(recs) != 2 {
		t.Fatalf("Read on torn ledger: %v (%d records)", err, len(recs))
	}
}

// TestLedgerAppendFaultTruncatesBack: an injected torn append leaves
// bytes on disk, but the failed Append truncates back to the pre-append
// length so a retry starts from a clean tail.
func TestLedgerAppendFaultTruncatesBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := Append(path, sampleRecord()); err != nil {
		t.Fatalf("seed append: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(1, 1.0, []faultinject.Kind{faultinject.KindTorn}, "ledger.append")
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)
	rec := sampleRecord()
	rec.Seed = 99
	err = Append(path, rec)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed append left bytes behind: %d -> %d", len(before), len(after))
	}
	faultinject.Disable()
	if err := Append(path, rec); err != nil {
		t.Fatalf("retry append: %v", err)
	}
	recs, err := Read(path)
	if err != nil || len(recs) != 2 {
		t.Fatalf("post-retry read: %v (%d records)", err, len(recs))
	}
}

// TestRecordDeterminism is the acceptance property: the same request +
// seed yields identical QoR fields after StripPerf, traced or not.
func TestRecordDeterminism(t *testing.T) {
	req := core.FlowRequest{Design: "alu", Arch: core.ArchSpec{Kind: "granular"},
		Flow: "b", Seed: 5, PlaceEffort: 2}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	run := tr.NewRun("alu/granular/flow b")
	res1, err := core.Run(context.Background(), req, core.ExecOptions{Trace: run})
	run.Close()
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	res2, err := core.Run(context.Background(), req, core.ExecOptions{})
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}
	rec1 := FromReport(res1.Report, 5, key)
	rec2 := FromReport(res2.Report, 5, key)
	if rec1.StageSeconds == nil || rec1.MovesPerSec <= 0 {
		t.Fatalf("traced record carries no perf block: %+v", rec1)
	}
	rec1.Stamp(time.Now(), "abc")
	rec1.StripPerf()
	rec2.StripPerf()
	if !reflect.DeepEqual(rec1, rec2) {
		t.Fatalf("QoR fields differ for identical request+seed:\n%+v\n%+v", rec1, rec2)
	}
	if rec1.DelayPS <= 0 || rec1.Wirelength <= 0 || rec1.Gates <= 0 {
		t.Fatalf("record missing core QoR figures: %+v", rec1)
	}
	if rec1.ChannelTracks <= 0 || rec1.PeakTrackDemand <= 0 {
		t.Fatalf("record missing routing channel figures: %+v", rec1)
	}
}

// TestDiffPassAndPerturb: identical ledgers pass; a +10% delay
// perturbation fails with a delta naming the record and metric; a
// missing record fails; improvements do not fail.
func TestDiffPassAndPerturb(t *testing.T) {
	base := []Record{sampleRecord()}
	cur := []Record{sampleRecord()}
	tol := DefaultTolerance()

	v := Diff(base, cur, tol)
	if !v.Pass || v.Compared != 1 {
		t.Fatalf("identical ledgers: %+v\n%s", v, v.Table(true))
	}

	cur[0].DelayPS *= 1.10
	v = Diff(base, cur, tol)
	if v.Pass {
		t.Fatalf("+10%% delay passed the gate:\n%s", v.Table(true))
	}
	regs := v.Regressions()
	if len(regs) != 1 || regs[0].Metric != "delay_ps" || regs[0].ID != base[0].ID() {
		t.Fatalf("regressions = %+v", regs)
	}
	table := v.Table(false)
	for _, want := range []string{"FAIL", "delay_ps", "alu/granular-plb/flow b/seed7", "regressed"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}

	// An improvement in the same band direction passes.
	cur[0].DelayPS = base[0].DelayPS * 0.80
	v = Diff(base, cur, tol)
	if !v.Pass {
		t.Fatalf("20%% delay improvement failed:\n%s", v.Table(true))
	}
	improved := false
	for _, d := range v.Deltas {
		if d.Metric == "delay_ps" && d.Status == "improved" {
			improved = true
		}
	}
	if !improved {
		t.Fatalf("improvement not reported: %+v", v.Deltas)
	}

	// Yield moving down past the band regresses; overflow is exact.
	cur[0].DelayPS = base[0].DelayPS
	cur[0].Yield = base[0].Yield - 0.10
	cur[0].Overflow = base[0].Overflow + 1
	v = Diff(base, cur, tol)
	got := map[string]bool{}
	for _, d := range v.Regressions() {
		got[d.Metric] = true
	}
	if !got["yield"] || !got["overflow"] {
		t.Fatalf("yield/overflow regressions not flagged: %+v", v.Regressions())
	}

	// A record that disappeared from the current ledger is a failure.
	v = Diff(base, nil, tol)
	if v.Pass || len(v.Regressions()) != 1 || v.Regressions()[0].Status != "missing" {
		t.Fatalf("missing record not flagged: %+v", v)
	}

	// A brand-new record is informational, never a failure.
	extra := sampleRecord()
	extra.Bench = "fir"
	v = Diff(base, []Record{sampleRecord(), extra}, tol)
	if !v.Pass {
		t.Fatalf("new record failed the gate:\n%s", v.Table(true))
	}
}

// TestDiffLatestLineWins: an append-only ledger that accumulated
// history for one ID is judged on its newest line.
func TestDiffLatestLineWins(t *testing.T) {
	base := []Record{sampleRecord()}
	stale := sampleRecord()
	stale.DelayPS *= 2 // old regression, since fixed
	v := Diff(base, []Record{stale, sampleRecord()}, DefaultTolerance())
	if !v.Pass {
		t.Fatalf("latest line did not win:\n%s", v.Table(true))
	}
}

// TestBaselineRoundTrip: WriteBaseline strips perf, sorts records and
// survives ReadBaseline; future schemas and empty baselines are
// rejected.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor", "baseline.json")
	b := &Baseline{
		Generated: "2026-08-05T00:00:00Z", GitRev: "deadbee",
		Scale: "test", Seed: 1, PlaceEffort: 3,
		Tolerance: DefaultTolerance(),
		Records:   []Record{sampleRecord()},
	}
	if err := WriteBaseline(path, b); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Schema != SchemaVersion || got.Seed != 1 || got.Scale != "test" {
		t.Fatalf("baseline header: %+v", got)
	}
	if len(got.Records) != 1 {
		t.Fatalf("records: %d", len(got.Records))
	}
	if got.Records[0].Time != "" || got.Records[0].StageSeconds != nil || got.Records[0].RuntimeSeconds != 0 {
		t.Fatalf("baseline record not perf-stripped: %+v", got.Records[0])
	}
	if got.Tolerance != DefaultTolerance() {
		t.Fatalf("tolerance: %+v", got.Tolerance)
	}

	if err := os.WriteFile(path, []byte(`{"schema":1,"records":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBaseline(path); err == nil {
		t.Fatal("empty baseline passed")
	}
}

// TestGateRequests: the gate spans the full 4x2x2 matrix with valid,
// distinct cache keys.
func TestGateRequests(t *testing.T) {
	reqs := GateRequests(GateOptions{Seed: 1})
	if len(reqs) != 16 {
		t.Fatalf("gate has %d cells, want 16", len(reqs))
	}
	keys := map[string]bool{}
	for _, req := range reqs {
		key, err := req.CacheKey()
		if err != nil {
			t.Fatalf("cell %+v: %v", req, err)
		}
		if keys[key] {
			t.Fatalf("duplicate cache key for %+v", req)
		}
		keys[key] = true
	}
}

// TestWriteReader: Write emits one compact JSON line per record.
func TestWriteReader(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleRecord(), sampleRecord()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		if strings.ContainsAny(line, "\t ") && strings.Contains(line, ": ") {
			t.Fatalf("line not compact: %q", line)
		}
	}
}
