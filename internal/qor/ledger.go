// Package qor is the quality-of-results regression observatory: a
// durable, append-only JSONL ledger of flow-run QoR and performance
// figures, and a drift gate that diffs a fresh ledger against a
// committed baseline with per-metric tolerance bands.
//
// The split the whole package is organized around: a Record's QoR
// fields (area, delay, wirelength, track demand, repair count, ...)
// are deterministic for a fixed request + seed — the same property the
// service's content-addressed cache relies on — while its perf fields
// (wall-clock runtime, per-stage seconds, moves/s, git revision,
// timestamp) are execution artifacts. StripPerf zeroes the latter, so
// two records of the same run compare identical, and the drift gate
// judges QoR on exact per-metric bands while perf is tracked but, by
// default, not gated (it is machine-dependent).
package qor

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"vpga/internal/core"
	"vpga/internal/faultinject"
)

// SchemaVersion is the ledger record schema. Readers accept records at
// or below their own version; bumping it marks an incompatible field
// change.
const SchemaVersion = 1

// Record is one ledger line: the QoR and perf figures of one flow run,
// keyed by what ran (bench/arch/flow/seed) and, when the run came from
// a FlowRequest, by the request's content-address cache key.
type Record struct {
	Schema int `json:"schema"`

	// Identity: which cell of the experiment space this is.
	Bench string `json:"bench"`
	Arch  string `json:"arch"`
	Flow  string `json:"flow"`
	Seed  int64  `json:"seed"`
	// Key is the originating FlowRequest's cache key ("" when the run
	// was not request-shaped, e.g. a clock-pinned matrix cell).
	Key string `json:"key,omitempty"`

	// QoR: deterministic for fixed identity.
	Gates           float64 `json:"gates"`
	DieArea         float64 `json:"die_area"`
	PLBs            int     `json:"plbs,omitempty"`
	Utilization     float64 `json:"utilization,omitempty"`
	DelayPS         float64 `json:"delay_ps"`
	WorstSlackPS    float64 `json:"worst_slack_ps"`
	Wirelength      float64 `json:"wirelength"`
	Overflow        int     `json:"overflow"`
	ChannelTracks   int     `json:"channel_tracks,omitempty"`
	PeakTrackDemand float64 `json:"peak_track_demand,omitempty"`
	PowerUW         float64 `json:"power_uw"`
	RepairAttempts  int     `json:"repair_attempts,omitempty"`
	// Yield is populated only by yield-sweep records (fraction of defect
	// maps the repair ladder recovered).
	Yield float64 `json:"yield,omitempty"`

	// Perf: wall-clock execution artifacts, zeroed by StripPerf.
	Time           string             `json:"time,omitempty"`
	GitRev         string             `json:"git_rev,omitempty"`
	RuntimeSeconds float64            `json:"runtime_seconds,omitempty"`
	StageSeconds   map[string]float64 `json:"stage_seconds,omitempty"`
	MovesPerSec    float64            `json:"moves_per_sec,omitempty"`
	// Stage-cache provenance: which pipeline stages this run restored
	// from the stage-granular build cache vs computed. Perf, not QoR —
	// a cached-prefix run's QoR figures are bit-identical to a cold
	// run's, so cache luck must not affect drift gating.
	StageCacheHits   int      `json:"stage_cache_hits,omitempty"`
	StageCacheMisses int      `json:"stage_cache_misses,omitempty"`
	StagesRestored   []string `json:"stages_restored,omitempty"`
}

// ID is the record's identity within a ledger or baseline: the
// (bench, arch, flow, seed) cell it measures.
func (r Record) ID() string {
	return fmt.Sprintf("%s/%s/%s/seed%d", r.Bench, r.Arch, r.Flow, r.Seed)
}

// StripPerf zeroes the wall-clock fields — the ledger counterpart of
// core's Report.StripMetrics. Two records of the same request + seed
// are identical after StripPerf; the determinism suite asserts this.
func (r *Record) StripPerf() {
	if r == nil {
		return
	}
	r.Time = ""
	r.GitRev = ""
	r.RuntimeSeconds = 0
	r.StageSeconds = nil
	r.MovesPerSec = 0
	r.StageCacheHits = 0
	r.StageCacheMisses = 0
	r.StagesRestored = nil
}

// FromReport extracts a Record from a flow report. key may be "" for
// runs that are not request-shaped. Perf fields come from the report's
// observability block when the run was traced (Stages/Solver), and the
// caller stamps Time/GitRev afterwards if it wants them.
func FromReport(rep *core.Report, seed int64, key string) Record {
	rec := Record{
		Schema: SchemaVersion,
		// Reports carry display names ("ALU"); ledger identities use the
		// request-shaped lowercase form so IDs line up with FlowRequests.
		Bench: strings.ToLower(rep.Design), Arch: rep.Arch, Flow: rep.Flow, Seed: seed, Key: key,
		Gates: rep.GateCount, DieArea: rep.DieArea,
		PLBs: rep.Rows * rep.Cols, Utilization: rep.Utilization,
		DelayPS: rep.MaxArrival, WorstSlackPS: rep.WorstSlack,
		Wirelength: rep.Wirelength, Overflow: rep.Overflow,
		ChannelTracks: rep.ChannelTracks, PeakTrackDemand: rep.PeakTrackDemand,
		PowerUW: rep.PowerUW, RepairAttempts: len(rep.Attempts),
		RuntimeSeconds: rep.Runtime.Seconds(),
	}
	if len(rep.Stages) > 0 {
		rec.StageSeconds = make(map[string]float64, len(rep.Stages))
		for _, st := range rep.Stages {
			rec.StageSeconds[st.Stage] = st.Dur.Seconds()
		}
		if rep.Solver != nil && rec.StageSeconds["place"] > 0 {
			rec.MovesPerSec = float64(rep.Solver.AnnealProposed) / rec.StageSeconds["place"]
		}
	}
	for _, use := range rep.StageCache {
		if use.Hit {
			rec.StageCacheHits++
			rec.StagesRestored = append(rec.StagesRestored, use.Stage)
		} else {
			rec.StageCacheMisses++
		}
	}
	return rec
}

// MatrixRecords extracts one Record per populated cell of a matrix's
// reports (design → arch → flow, as core.Matrix.Reports holds them),
// sorted by ID. Matrix cells are clock-pinned across flows, not
// request-shaped, so the records carry no cache key.
func MatrixRecords(reports map[string]map[string]map[string]*core.Report, seed int64) []Record {
	var recs []Record
	for _, archs := range reports {
		for _, flows := range archs {
			for _, rep := range flows {
				if rep != nil {
					recs = append(recs, FromReport(rep, seed, ""))
				}
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID() < recs[j].ID() })
	return recs
}

// Stamp fills the record's provenance fields: an RFC3339 timestamp and
// the git revision (skipped when rev is "").
func (r *Record) Stamp(now time.Time, rev string) {
	r.Time = now.UTC().Format(time.RFC3339)
	r.GitRev = rev
}

// GitRev best-effort resolves the working tree's short revision; it
// returns "" when git or the repository is unavailable — ledger
// provenance is optional, never fatal.
func GitRev(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Write encodes records as JSONL: one compact JSON object per line.
func Write(w io.Writer, recs ...Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		enc, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("qor: encode record %s: %w", rec.ID(), err)
		}
		bw.Write(enc)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Append appends records to the ledger at path, creating the file (and
// its directory) on first use. The ledger is append-only by
// construction: existing lines are never rewritten, so history
// survives a crash mid-append at worst as one truncated final line,
// which ReadAll skips as a torn tail. A failed in-process append
// additionally truncates the file back to its pre-append length, so a
// bounded retry starts from a clean tail instead of stacking partial
// lines mid-file (the daemon is the ledger's single writer; the
// truncation would be unsafe only with concurrent appender processes).
//
// The "ledger.append" fault point fires here: an injected torn write
// persists half the batch before erroring, exactly the artifact a real
// crash leaves.
func Append(path string, recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("qor: ledger dir: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("qor: open ledger: %w", err)
	}
	// Buffer the whole append so a multi-record batch lands as one
	// write, keeping concurrent appenders line-atomic on POSIX.
	var buf bytes.Buffer
	if err := Write(&buf, recs...); err != nil {
		f.Close()
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("qor: stat ledger: %w", err)
	}
	undo := func() {
		f.Truncate(st.Size())
	}
	if flt := faultinject.Arm("ledger.append"); flt != nil {
		if torn := flt.TornBytes(buf.Bytes()); torn != nil {
			f.Write(torn)
		}
		undo()
		f.Close()
		return fmt.Errorf("qor: append ledger: %w", flt.Err())
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		undo()
		f.Close()
		return fmt.Errorf("qor: append ledger: %w", err)
	}
	return f.Close()
}

// ReadStats reports what a ledger read skipped. A torn tail — the
// final non-blank line failing to parse, the artifact of a crash
// mid-append — is tolerated and surfaced here instead of failing the
// whole read; corruption anywhere else stays a hard error, because a
// bad line with valid lines after it is not a crash artifact.
type ReadStats struct {
	// Lines is the number of physical lines scanned.
	Lines int
	// TornTail is true when the final non-blank line was skipped.
	TornTail bool
	// TornLine and TornErr locate and describe the skipped line.
	TornLine int
	TornErr  string
}

// ReadAll decodes a JSONL ledger stream. Blank lines are skipped;
// unknown fields are tolerated (forward compatibility), but a record
// from a newer schema than this reader understands is an error. A
// truncated trailing line (torn write) is skipped silently; use
// ReadAllStats to observe the skip.
func ReadAll(r io.Reader) ([]Record, error) {
	recs, _, err := ReadAllStats(r)
	return recs, err
}

// ReadAllStats is ReadAll returning skip diagnostics alongside the
// records.
func ReadAllStats(r io.Reader) ([]Record, ReadStats, error) {
	var (
		recs  []Record
		stats ReadStats
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	// A parse failure is held pending one line: if any non-blank line
	// follows it the corruption is mid-file and fatal; if the stream
	// ends first it is a torn tail and skipped.
	pendingLine := 0
	var pendingErr error
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if pendingErr != nil {
			stats.Lines = line
			return recs, stats, fmt.Errorf("qor: ledger line %d: %w", pendingLine, pendingErr)
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			pendingLine, pendingErr = line, err
			continue
		}
		if rec.Schema > SchemaVersion {
			stats.Lines = line
			return recs, stats, fmt.Errorf("qor: ledger line %d: schema %d newer than supported %d",
				line, rec.Schema, SchemaVersion)
		}
		recs = append(recs, rec)
	}
	stats.Lines = line
	if err := sc.Err(); err != nil {
		return recs, stats, fmt.Errorf("qor: ledger line %d: %w", line, err)
	}
	if pendingErr != nil {
		stats.TornTail = true
		stats.TornLine = pendingLine
		stats.TornErr = pendingErr.Error()
	}
	return recs, stats, nil
}

// Read loads the ledger at path, skipping a torn trailing line.
func Read(path string) ([]Record, error) {
	recs, _, err := ReadStatsFile(path)
	return recs, err
}

// ReadStatsFile is Read returning skip diagnostics, so callers can
// warn about a torn tail instead of losing the signal.
func ReadStatsFile(path string) ([]Record, ReadStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ReadStats{}, fmt.Errorf("qor: %w", err)
	}
	defer f.Close()
	return ReadAllStats(f)
}
