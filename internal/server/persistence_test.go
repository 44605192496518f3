package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vpga/internal/core"
)

// runKey computes the content address of the shared runBody request.
func runKey(t *testing.T) string {
	t.Helper()
	var req core.FlowRequest
	if err := json.Unmarshal([]byte(runBody), &req); err != nil {
		t.Fatal(err)
	}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestStoreSurvivesRestart: a completed result persists in the
// artifact store and a restarted daemon serves it as a cache hit, with
// a result identical to the original.
func TestStoreSurvivesRestart(t *testing.T) {
	dataDir := t.TempDir()
	s1, ts1 := newTestServer(t, Options{Workers: 2, DataDir: dataDir})
	_, jr1 := postJSON(t, ts1, "/v1/runs?wait=1", runBody)
	if jr1.Status != "done" {
		t.Fatalf("first run: %q (%s)", jr1.Status, jr1.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Options{Workers: 2, DataDir: dataDir})
	resp, jr2 := postJSON(t, ts2, "/v1/runs?wait=1", runBody)
	if resp.StatusCode != http.StatusOK || !jr2.Cached {
		t.Fatalf("restarted daemon recomputed: status %d cached=%v", resp.StatusCode, jr2.Cached)
	}
	r1, r2 := reportOf(t, jr1), reportOf(t, jr2)
	r1.StripMetrics()
	r2.StripMetrics()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("persisted result diverged from the original")
	}
	if s2.stats().StoreHits == 0 {
		t.Fatal("store hit not counted")
	}
}

// TestStoreCorruptEntryRecomputes: damage to a persisted result across
// a restart is a silent miss — the daemon recomputes the identical
// report and counts the eviction.
func TestStoreCorruptEntryRecomputes(t *testing.T) {
	dataDir := t.TempDir()
	s1, ts1 := newTestServer(t, Options{Workers: 2, DataDir: dataDir})
	_, jr1 := postJSON(t, ts1, "/v1/runs?wait=1", runBody)
	if jr1.Status != "done" {
		t.Fatalf("first run: %q (%s)", jr1.Status, jr1.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s1.Shutdown(ctx)
	ts1.Close()

	p := filepath.Join(dataDir, "artifacts", runKey(t)+".art")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("persisted artifact missing: %v", err)
	}
	if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Options{Workers: 2, DataDir: dataDir})
	resp, jr2 := postJSON(t, ts2, "/v1/runs?wait=1", runBody)
	if resp.StatusCode != http.StatusOK || jr2.Status != "done" {
		t.Fatalf("recompute: status %d job %q (%s)", resp.StatusCode, jr2.Status, jr2.Error)
	}
	if jr2.Cached {
		t.Fatal("corrupt artifact served as a cache hit")
	}
	r1, r2 := reportOf(t, jr1), reportOf(t, jr2)
	r1.StripMetrics()
	r2.StripMetrics()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("recomputed result diverged from the original")
	}
	if s2.stats().StoreCorruptEvicted == 0 {
		t.Fatal("corrupt artifact not evicted")
	}
}

// TestJournalReplayReenqueues is the crash-recovery property at the
// unit level: an accepted entry with no terminal entry — the exact
// state a SIGKILL leaves — is rebuilt at startup, re-enqueued under
// its original ID, runs to completion, and the ID sequence resumes
// past it.
func TestJournalReplayReenqueues(t *testing.T) {
	dataDir := t.TempDir()
	key := runKey(t)
	jn, _, err := openJournal(filepath.Join(dataDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.append(journalEntry{
		ID: "j000042", State: "accepted", Kind: "run", Key: key, Body: []byte(runBody),
	}, true); err != nil {
		t.Fatal(err)
	}
	jn.close()

	s, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir})
	deadline := time.Now().Add(60 * time.Second)
	var jr jobResponse
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/j000042")
		if err != nil {
			t.Fatal(err)
		}
		ok := resp.StatusCode == http.StatusOK
		jr = jobResponse{}
		json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if ok && (jr.Status == "done" || jr.Status == "failed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job never finished: status %d job %+v", resp.StatusCode, jr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if jr.Status != "done" {
		t.Fatalf("replayed job failed: %s", jr.Error)
	}
	if s.stats().JournalReplayedJobs != 1 {
		t.Fatalf("replayed jobs = %d", s.stats().JournalReplayedJobs)
	}
	// Fresh submissions continue past the replayed ID.
	_, fresh := postJSON(t, ts, "/v1/runs?wait=1", `{"design":"alu","seed":9}`)
	if n := jobIDNum(fresh.ID); n <= 42 {
		t.Fatalf("fresh job ID %q did not resume past the replayed sequence", fresh.ID)
	}
	// The replayed result matches a from-scratch reference run.
	_, ref := postJSON(t, ts, "/v1/runs?wait=1", runBody)
	if !ref.Cached {
		t.Fatal("replayed job's result not served from cache")
	}
	rr, rf := reportOf(t, jr), reportOf(t, ref)
	rr.StripMetrics()
	rf.StripMetrics()
	if !reflect.DeepEqual(rr, rf) {
		t.Fatal("replayed result diverged")
	}
}

// TestJournalReplaySkipsCompleted: a job whose terminal entry landed
// is history — replay must not re-enqueue it, and startup compaction
// leaves the journal holding only incomplete work.
func TestJournalReplaySkipsCompleted(t *testing.T) {
	dataDir := t.TempDir()
	path := filepath.Join(dataDir, "journal.wal")
	jn, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []journalEntry{
		{ID: "j000001", State: "accepted", Kind: "run", Key: "k1", Body: []byte(runBody)},
		{ID: "j000001", State: "running"},
		{ID: "j000001", State: "done"},
		{ID: "j000002", State: "accepted", Kind: "run", Key: runKey(t), Body: []byte(runBody)},
	} {
		if err := jn.append(e, true); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()

	s, _ := newTestServer(t, Options{Workers: 1, DataDir: dataDir})
	deadline := time.Now().Add(60 * time.Second)
	for s.stats().Completed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replayed job never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := s.stats().JournalReplayedJobs; got != 1 {
		t.Fatalf("replayed %d jobs, want 1 (completed job must not replay)", got)
	}
}

// TestInflightDedupe: an identical submission racing a queued job
// attaches to it instead of running the flow twice.
func TestInflightDedupe(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Workers: 1,
		testJobStart: func(*job) {
			<-release
		},
	})
	resp1, jr1 := postJSON(t, ts, "/v1/runs", runBody)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: status %d", resp1.StatusCode)
	}
	resp2, jr2 := postJSON(t, ts, "/v1/runs", runBody)
	if resp2.StatusCode != http.StatusAccepted || jr2.ID != jr1.ID {
		t.Fatalf("duplicate submission got job %q (status %d), want attach to %q",
			jr2.ID, resp2.StatusCode, jr1.ID)
	}
	close(release)
	deadline := time.Now().Add(60 * time.Second)
	for s.stats().Completed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := s.stats().Completed; got != 1 {
		t.Fatalf("completed %d jobs, want 1", got)
	}
}

// TestDrainJournalsInFlight is the graceful-shutdown satellite: a
// SIGTERM-style drain lets the in-flight job finish and its terminal
// entry reach the journal, so the next startup replays nothing.
func TestDrainJournalsInFlight(t *testing.T) {
	dataDir := t.TempDir()
	s, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, jr := postJSON(t, ts, "/v1/runs", runBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission: status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The journal now holds the full accepted → running → done history.
	jn, entries, err := openJournal(filepath.Join(dataDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	jn.close()
	var states []string
	for _, e := range entries {
		if e.ID == jr.ID {
			states = append(states, e.State)
		}
	}
	if strings.Join(states, ",") != "accepted,running,done" {
		t.Fatalf("journaled states %v, want accepted,running,done", states)
	}
	// A restart on the same directory replays nothing and serves the
	// drained job's result from the store.
	s2, ts2 := newTestServer(t, Options{Workers: 1, DataDir: dataDir})
	if got := s2.stats().JournalReplayedJobs; got != 0 {
		t.Fatalf("restart replayed %d jobs after a clean drain", got)
	}
	resp2, jr2 := postJSON(t, ts2, "/v1/runs?wait=1", runBody)
	if resp2.StatusCode != http.StatusOK || !jr2.Cached {
		t.Fatalf("post-drain restart: status %d cached=%v", resp2.StatusCode, jr2.Cached)
	}
}

// TestReplayedJobsServeStatusAndSSE is the restart-observability
// satellite: every journal-replayed job must be pollable AND must
// serve its SSE stream immediately after startup — including jobs the
// replay goroutine has not yet squeezed into the bounded run queue.
// (The regression: jobs were registered only as they were enqueued, so
// a deep replay backlog answered 404 for its tail.)
func TestReplayedJobsServeStatusAndSSE(t *testing.T) {
	dataDir := t.TempDir()
	jn, _, err := openJournal(filepath.Join(dataDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = fmt.Sprintf("j%06d", 201+i)
		body := fmt.Sprintf(`{"design":"alu","arch":{"kind":"granular"},"flow":"b","seed":%d}`, 301+i)
		var req core.FlowRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		key, err := req.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if err := jn.append(journalEntry{
			ID: ids[i], State: "accepted", Kind: "run", Key: key, Body: []byte(body),
		}, true); err != nil {
			t.Fatal(err)
		}
	}
	jn.close()

	// One worker, queue depth 1, first job gated: the replay goroutine
	// cannot have enqueued the tail when New returns.
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 1, DataDir: dataDir,
		testJobStart: func(*job) { <-release },
	})
	// Every replayed ID answers immediately — status and SSE, no 404.
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replayed job %s: status %d immediately after restart, want 200", id, resp.StatusCode)
		}
	}
	last := ids[len(ids)-1]
	es, err := http.Get(ts.URL + "/v1/runs/" + last + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if es.StatusCode != http.StatusOK || !strings.HasPrefix(es.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("replayed job %s events: status %d content-type %q, want a live SSE stream",
			last, es.StatusCode, es.Header.Get("Content-Type"))
	}
	close(release)

	// The stream follows the replayed job through to its terminal
	// event, exactly like a fresh submission's.
	sawDone := false
	sc := bufio.NewScanner(es.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "event: done" {
			sawDone = true
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if !sawDone {
		t.Fatalf("replayed job %s stream ended without a done event", last)
	}
	if got := s.stats().JournalReplayedJobs; got != int64(len(ids)) {
		t.Fatalf("replayed %d jobs, want %d", got, len(ids))
	}
}

// TestFailedCellsNeverCached: a continue_on_error matrix whose cells
// failed is served, but neither cached nor persisted — after a restart
// without the timeout, the same request recomputes and comes back
// complete instead of replaying the stale failure ledger.
func TestFailedCellsNeverCached(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	const body = `{"seed":11,"place_effort":1,"continue_on_error":true}`
	dataDir := t.TempDir()
	s1, ts1 := newTestServer(t, Options{Workers: 2, JobTimeout: 30 * time.Millisecond, DataDir: dataDir})
	code, first := httpJSON(t, "POST", ts1.URL+"/v1/matrix?wait=1", body)
	if code != http.StatusOK || first.Status != "done" {
		t.Fatalf("timed-out matrix: status %d job %q (%s)", code, first.Status, first.Error)
	}
	var res MatrixResult
	if err := json.Unmarshal(first.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) == 0 {
		t.Fatal("a 30ms budget left the matrix without failed cells")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts1.Close()

	_, ts2 := newTestServer(t, Options{Workers: 2, DataDir: dataDir})
	code, again := httpJSON(t, "POST", ts2.URL+"/v1/matrix?wait=1", body)
	if code != http.StatusOK || again.Status != "done" || again.Cached {
		t.Fatalf("resubmission after restart: status %d job %q cached=%v (%s)", code, again.Status, again.Cached, again.Error)
	}
	res = MatrixResult{}
	if err := json.Unmarshal(again.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("recomputed matrix still carries %d failed cells: %q", len(res.Errors), res.Errors)
	}
}

// TestDrainBudgetExpiryReplays: a drain whose budget runs out cancels
// the running job but journals no terminal entry for it, so a restart
// on the same directory finishes the job under its ID — exactly as
// after a SIGKILL — with the uninterrupted result.
func TestDrainBudgetExpiryReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	dataDir := t.TempDir()
	s, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	code, jr := httpJSON(t, "POST", ts.URL+"/v1/matrix", `{"seed":7,"place_effort":3}`)
	if code != http.StatusAccepted || jr.ID == "" {
		t.Fatalf("submission: status %d %+v", code, jr)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := httpJSON(t, "GET", ts.URL+"/v1/runs/"+jr.ID, "")
		if st.Status == "running" {
			break
		}
		if st.Status == "done" || time.Now().After(deadline) {
			t.Fatalf("matrix finished before the drain window (status %q)", st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("a 100ms drain finished a running matrix")
	}
	ts.Close()
	jn, entries, err := openJournal(filepath.Join(dataDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	jn.close()
	var states []string
	for _, e := range entries {
		if e.ID == jr.ID {
			states = append(states, e.State)
		}
	}
	if got := strings.Join(states, ","); got != "accepted,running" {
		t.Fatalf("journaled states %s, want accepted,running (no terminal entry)", got)
	}

	s2, ts2 := newTestServer(t, Options{Workers: 1, DataDir: dataDir})
	deadline = time.Now().Add(3 * time.Minute)
	var replayed rawResponse
	for {
		code, replayed = httpJSON(t, "GET", ts2.URL+"/v1/runs/"+jr.ID, "")
		if code == http.StatusOK && (replayed.Status == "done" || replayed.Status == "failed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job %s never finished: status %d %+v", jr.ID, code, replayed)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if replayed.Status != "done" {
		t.Fatalf("replayed job failed: %s", replayed.Error)
	}
	checkMatrixGolden(t, replayed.Result)
	if got := s2.stats().JournalReplayedJobs; got != 1 {
		t.Fatalf("replayed %d jobs, want 1", got)
	}
}
