package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"vpga/internal/artifact"
	"vpga/internal/core"
	"vpga/internal/faultinject"
	"vpga/internal/qor"
)

// TestMain doubles the test binary as a chaos-test daemon: with
// VPGAD_CHAOS_CHILD=1 it serves a crash-safe Server instead of running
// tests, so the kill/restart test can SIGKILL a real process — the one
// failure mode no in-process test can model.
func TestMain(m *testing.M) {
	if os.Getenv("VPGAD_CHAOS_CHILD") == "1" {
		chaosChildMain()
		return
	}
	os.Exit(m.Run())
}

// drainableHandler is what the chaos child serves: a worker Server or
// a cluster Coordinator, both HTTP handlers with graceful shutdown.
type drainableHandler interface {
	http.Handler
	Shutdown(context.Context) error
}

// chaosChildMain is the daemon body of the re-exec'd test binary: a
// Server rooted at $VPGAD_CHAOS_DATA — or, with VPGAD_CHAOS_WORKERS
// set to a comma-separated URL list, a cluster Coordinator over those
// workers — its address announced on stdout, draining cleanly on
// SIGTERM. Fault injection comes from the usual VPGA_FAULTS
// environment variable.
func chaosChildMain() {
	if inj, err := faultinject.FromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos child:", err)
		os.Exit(1)
	} else if inj != nil {
		faultinject.Enable(inj)
	}
	var (
		s   drainableHandler
		err error
	)
	if ws := os.Getenv("VPGAD_CHAOS_WORKERS"); ws != "" {
		s, err = NewCoordinator(CoordinatorOptions{Workers: strings.Split(ws, ","), DataDir: os.Getenv("VPGAD_CHAOS_DATA")})
	} else {
		s, err = New(Options{Workers: 2, DataDir: os.Getenv("VPGAD_CHAOS_DATA")})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos child:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos child:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	srv := &http.Server{Handler: s}
	go srv.Serve(ln)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, os.Interrupt)
	<-ch
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "chaos child drain:", err)
		os.Exit(1)
	}
	srv.Shutdown(ctx)
	os.Exit(0)
}

// chaosDaemon is a running child daemon.
type chaosDaemon struct {
	cmd  *exec.Cmd
	base string // http://addr
}

func startChaosDaemon(t *testing.T, dataDir string, env ...string) *chaosDaemon {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "VPGAD_CHAOS_CHILD=1", "VPGAD_CHAOS_DATA="+dataDir)
	cmd.Env = append(cmd.Env, env...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("chaos daemon produced no address: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ADDR ")
	if !ok {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("chaos daemon greeting %q", line)
	}
	go io.Copy(io.Discard, br)
	return &chaosDaemon{cmd: cmd, base: "http://" + addr}
}

// rawResponse decodes a job envelope keeping the result's raw bytes,
// so byte-identity can be asserted rather than value-identity.
type rawResponse struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Cached    bool            `json:"cached"`
	Error     string          `json:"error"`
	Stage     string          `json:"stage"`
	ErrorKind string          `json:"error_kind"`
	TraceID   string          `json:"trace_id"`
	Result    json.RawMessage `json:"result"`
}

func httpJSON(t *testing.T, method, url, body string) (int, rawResponse) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr rawResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode, jr
}

const chaosMatrixBody = `{"seed":7,"place_effort":3,"parallel":2}`

// TestChaosKillRestart is the tentpole's acceptance test: SIGKILL a
// real daemon process mid-matrix, restart it on the same data
// directory, and the replayed job — same ID — completes with a result
// byte-identical to an uninterrupted daemon's. The restarted daemon
// then drains cleanly on SIGTERM.
func TestChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short")
	}
	// Reference: the same matrix on an uninterrupted daemon.
	refDaemon := startChaosDaemon(t, t.TempDir())
	refStatus, ref := httpJSON(t, "POST", refDaemon.base+"/v1/matrix?wait=1", chaosMatrixBody)
	if refStatus != http.StatusOK || ref.Status != "done" {
		t.Fatalf("reference matrix: status %d job %q (%s)", refStatus, ref.Status, ref.Error)
	}
	refDaemon.cmd.Process.Signal(syscall.SIGTERM)
	refDaemon.cmd.Wait()

	// Victim: submit, let it get underway, SIGKILL.
	dataDir := t.TempDir()
	victim := startChaosDaemon(t, dataDir)
	code, jr := httpJSON(t, "POST", victim.base+"/v1/matrix", chaosMatrixBody)
	if code != http.StatusAccepted || jr.ID == "" {
		t.Fatalf("submission: status %d %+v", code, jr)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := httpJSON(t, "GET", victim.base+"/v1/runs/"+jr.ID, "")
		if st.Status == "running" {
			break
		}
		if st.Status == "done" || time.Now().After(deadline) {
			t.Fatalf("matrix finished before the kill window (status %q) — raise its size", st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.cmd.Process.Kill() // SIGKILL: no drain, no journal terminal entry
	victim.cmd.Wait()

	// Restart on the same directory: the journal replays the job under
	// its original ID and it runs to completion.
	revived := startChaosDaemon(t, dataDir)
	defer func() {
		revived.cmd.Process.Kill()
		revived.cmd.Wait()
	}()
	deadline = time.Now().Add(3 * time.Minute)
	var replayed rawResponse
	for {
		code, replayed = httpJSON(t, "GET", revived.base+"/v1/runs/"+jr.ID, "")
		if code == http.StatusOK && (replayed.Status == "done" || replayed.Status == "failed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job %s never finished: status %d %+v", jr.ID, code, replayed)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if replayed.Status != "done" {
		t.Fatalf("replayed job failed: %s", replayed.Error)
	}
	if !bytes.Equal(ref.Result, replayed.Result) {
		t.Fatalf("matrix after kill+restart is not byte-identical to the uninterrupted run:\nref   %d bytes\nredone %d bytes",
			len(ref.Result), len(replayed.Result))
	}
	// The restart observably replayed from the journal.
	hz, err := http.Get(revived.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Journal struct {
			ReplayedJobs int64 `json:"replayed_jobs"`
		} `json:"journal"`
	}
	json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if health.Journal.ReplayedJobs < 1 {
		t.Fatalf("healthz reports %d replayed jobs", health.Journal.ReplayedJobs)
	}
	// And the revived daemon exits 0 on SIGTERM.
	revived.cmd.Process.Signal(syscall.SIGTERM)
	if err := revived.cmd.Wait(); err != nil {
		t.Fatalf("revived daemon did not drain cleanly: %v", err)
	}
}

// TestChaosSoak drives the crash-safety layer through hundreds of
// seeded injected faults — torn writes and I/O errors across the
// journal, ledger, artifact store and flow stage boundaries — and
// asserts the service neither crashes nor ever serves a report that
// diverges from a clean run's.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	t.Cleanup(faultinject.Disable)
	var totalInjected int64

	// Phase 1 — component I/O under heavy fault pressure: every
	// operation either succeeds (possibly after bounded retry) or fails
	// cleanly; no partial state is ever visible afterwards.
	compInj := faultinject.New(99, 0.25,
		[]faultinject.Kind{faultinject.KindErrWrite, faultinject.KindTorn},
		"journal.append", "ledger.append", "artifact.write", "artifact.read")
	faultinject.Enable(compInj)

	dir := t.TempDir()
	jn, _, err := openJournal(filepath.Join(dir, "soak.wal"))
	if err != nil {
		t.Fatal(err)
	}
	store, err := artifact.Open(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	ledgerPath := filepath.Join(dir, "soak.jsonl")
	key := func(i int) string { return fmt.Sprintf("%064d", i) }
	journaled, ledgered := 0, 0
	for i := 0; i < 150; i++ {
		if err := faultinject.Retry(8, 0, func() error {
			return jn.append(journalEntry{ID: fmt.Sprintf("j%06d", i), State: "accepted"}, false)
		}, nil); err == nil {
			journaled++
		}
		if err := faultinject.Retry(8, 0, func() error {
			return qor.Append(ledgerPath, qor.Record{Schema: 1, Bench: "alu", Arch: "soak", Flow: "b", Seed: int64(i)})
		}, nil); err == nil {
			ledgered++
		}
		payload := bytes.Repeat([]byte{byte(i)}, 64+i)
		if err := faultinject.Retry(8, 0, func() error {
			return store.Put(key(i), payload)
		}, nil); err == nil {
			var got []byte
			ok := false
			for attempt := 0; attempt < 8 && !ok; attempt++ {
				got, ok = store.Get(key(i))
			}
			if !ok {
				t.Fatalf("iteration %d: stored artifact unreadable after retries", i)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("iteration %d: artifact payload corrupted in flight", i)
			}
		}
	}
	jn.close()
	faultinject.Disable()
	totalInjected += compInj.Injected()

	// Everything that reported success is durably, cleanly on disk.
	jn2, entries, err := openJournal(filepath.Join(dir, "soak.wal"))
	if err != nil {
		t.Fatal(err)
	}
	jn2.close()
	if len(entries) != journaled || jn2.corruptFrames != 0 {
		t.Fatalf("journal after soak: %d entries (want %d), %d torn frames",
			len(entries), journaled, jn2.corruptFrames)
	}
	recs, st, err := qor.ReadStatsFile(ledgerPath)
	if err != nil {
		t.Fatalf("ledger after soak: %v", err)
	}
	if len(recs) != ledgered || st.TornTail {
		t.Fatalf("ledger after soak: %d records (want %d), torn=%v", len(recs), ledgered, st.TornTail)
	}

	// Phase 2 — whole-service soak: a fault-ridden daemon must produce
	// exactly the reports a clean daemon does. Bounded retries absorb
	// transient faults; a job that still fails is resubmitted (the
	// deterministic flow recomputes identically), never accepted as a
	// divergent result.
	bodies := make([]string, 6)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"design":"alu","arch":{"kind":"granular"},"flow":"b","seed":%d}`, 100+i)
	}
	_, cleanTS := newTestServer(t, Options{Workers: 2})
	cleanReports := make([]*rawResponse, len(bodies))
	for i, body := range bodies {
		code, jr := httpJSON(t, "POST", cleanTS.URL+"/v1/runs?wait=1", body)
		if code != http.StatusOK || jr.Status != "done" {
			t.Fatalf("clean run %d: status %d job %q (%s)", i, code, jr.Status, jr.Error)
		}
		cleanReports[i] = &jr
	}

	flowInj := faultinject.New(7, 0.04,
		[]faultinject.Kind{faultinject.KindErrWrite, faultinject.KindTorn},
		"stage.", "journal.append", "ledger.append", "artifact.write", "artifact.read")
	faultinject.Enable(flowInj)
	_, faultyTS := newTestServer(t, Options{
		Workers: 1, DataDir: t.TempDir(), LedgerPath: filepath.Join(dir, "faulty.jsonl"),
	})
	for i, body := range bodies {
		var jr rawResponse
		done := false
		for attempt := 0; attempt < 5 && !done; attempt++ {
			code, r := httpJSON(t, "POST", faultyTS.URL+"/v1/runs?wait=1", body)
			if code == http.StatusOK && r.Status == "done" {
				jr, done = r, true
			}
		}
		if !done {
			t.Fatalf("faulty run %d never completed", i)
		}
		cl, fl := decodeReport(t, cleanReports[i].Result), decodeReport(t, jr.Result)
		cl.StripMetrics()
		fl.StripMetrics()
		if !reflect.DeepEqual(cl, fl) {
			t.Fatalf("faulty run %d diverged from the clean run", i)
		}
	}
	faultinject.Disable()
	totalInjected += flowInj.Injected()

	if totalInjected < 200 {
		t.Fatalf("soak injected only %d faults, want >= 200", totalInjected)
	}
}

func decodeReport(t *testing.T, raw json.RawMessage) *core.Report {
	t.Helper()
	rep := &core.Report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// coordHealth is the slice of the coordinator's /healthz the cluster
// chaos test asserts against.
type coordHealth struct {
	NodesUp int `json:"nodes_up"`
	Nodes   []struct {
		Node       string `json:"node"`
		Up         bool   `json:"up"`
		Dispatched int64  `json:"dispatched"`
	} `json:"nodes"`
	Cluster struct {
		Tickets  int64 `json:"tickets"`
		Reshards int64 `json:"reshards"`
		Steals   int64 `json:"steals"`
	} `json:"cluster"`
}

func getCoordHealth(t *testing.T, base string) coordHealth {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h coordHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestChaosClusterWorkerSIGKILL is the scale-out acceptance under real
// process death: a coordinator over three re-exec'd worker daemons
// runs the benchmark matrix; one worker is SIGKILLed mid-matrix; the
// in-flight and queued cells re-shard onto the survivors and the
// merged report is byte-identical to the committed single-node golden.
func TestChaosClusterWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short")
	}
	workers := make([]*chaosDaemon, 3)
	bases := make([]string, 3)
	for i := range workers {
		workers[i] = startChaosDaemon(t, t.TempDir())
		bases[i] = workers[i].base
	}
	t.Cleanup(func() {
		for _, w := range workers {
			w.cmd.Process.Kill()
			w.cmd.Wait()
		}
	})
	coord := startChaosDaemon(t, t.TempDir(), "VPGAD_CHAOS_WORKERS="+strings.Join(bases, ","))
	t.Cleanup(func() {
		coord.cmd.Process.Kill()
		coord.cmd.Wait()
	})

	code, jr := httpJSON(t, "POST", coord.base+"/v1/matrix", chaosMatrixBody)
	if code != http.StatusAccepted || jr.ID == "" {
		t.Fatalf("cluster matrix submission: status %d %+v", code, jr)
	}
	// Kill the first worker observed executing tickets, while the
	// matrix is still in flight.
	victim := -1
	deadline := time.Now().Add(30 * time.Second)
	for victim < 0 {
		h := getCoordHealth(t, coord.base)
		for _, n := range h.Nodes {
			for i, b := range bases {
				if n.Node == b && n.Dispatched > 0 {
					victim = i
				}
			}
		}
		if victim >= 0 {
			break
		}
		if _, st := httpJSON(t, "GET", coord.base+"/v1/runs/"+jr.ID, ""); st.Status == "done" || st.Status == "failed" {
			t.Fatalf("matrix reached %q before any ticket dispatch was observed", st.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("no ticket dispatched within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	workers[victim].cmd.Process.Kill() // SIGKILL: sockets die mid-request
	workers[victim].cmd.Wait()

	deadline = time.Now().Add(3 * time.Minute)
	var merged rawResponse
	for {
		var code int
		code, merged = httpJSON(t, "GET", coord.base+"/v1/runs/"+jr.ID, "")
		if code == http.StatusOK && (merged.Status == "done" || merged.Status == "failed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster matrix never finished after the kill: status %d %+v", code, merged)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if merged.Status != "done" {
		t.Fatalf("cluster matrix failed after the kill: %s", merged.Error)
	}
	checkMatrixGolden(t, merged.Result)

	h := getCoordHealth(t, coord.base)
	if h.Cluster.Reshards < 1 {
		t.Fatalf("reshards = %d after a SIGKILLed worker (healthz %+v)", h.Cluster.Reshards, h)
	}
	if h.NodesUp > 2 {
		t.Fatalf("nodes_up = %d after killing one of three workers", h.NodesUp)
	}
	// The coordinator itself drains cleanly.
	coord.cmd.Process.Signal(syscall.SIGTERM)
	if err := coord.cmd.Wait(); err != nil {
		t.Fatalf("coordinator did not drain cleanly: %v", err)
	}
}

// TestChaosCoordinatorKillRestart: a coordinator with a data directory
// is SIGKILLed while its matrix is in flight over three re-exec'd
// workers, then restarted on the same directory. The journal replays
// the job under its original ID, and the merged result is
// byte-identical to the committed single-node golden.
func TestChaosCoordinatorKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short")
	}
	bases := make([]string, 3)
	for i := range bases {
		w := startChaosDaemon(t, t.TempDir())
		t.Cleanup(func() {
			w.cmd.Process.Kill()
			w.cmd.Wait()
		})
		bases[i] = w.base
	}
	workersEnv := "VPGAD_CHAOS_WORKERS=" + strings.Join(bases, ",")
	dataDir := t.TempDir()
	victim := startChaosDaemon(t, dataDir, workersEnv)
	code, jr := httpJSON(t, "POST", victim.base+"/v1/matrix", chaosMatrixBody)
	if code != http.StatusAccepted || !strings.HasPrefix(jr.ID, "c") || jr.TraceID == "" {
		t.Fatalf("cluster matrix submission: status %d %+v", code, jr)
	}
	// Kill once tickets are out, while the matrix is still in flight.
	deadline := time.Now().Add(30 * time.Second)
	for dispatched := int64(0); dispatched == 0; {
		for _, n := range getCoordHealth(t, victim.base).Nodes {
			dispatched += n.Dispatched
		}
		if _, st := httpJSON(t, "GET", victim.base+"/v1/runs/"+jr.ID, ""); st.Status == "done" || st.Status == "failed" {
			t.Fatalf("matrix reached %q before the kill", st.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("no ticket dispatched within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.cmd.Process.Kill() // SIGKILL: no drain, no terminal journal entry
	victim.cmd.Wait()

	revived := startChaosDaemon(t, dataDir, workersEnv)
	defer func() {
		revived.cmd.Process.Kill()
		revived.cmd.Wait()
	}()
	deadline = time.Now().Add(3 * time.Minute)
	var replayed rawResponse
	for {
		code, replayed = httpJSON(t, "GET", revived.base+"/v1/runs/"+jr.ID, "")
		if code == http.StatusOK && (replayed.Status == "done" || replayed.Status == "failed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job %s never finished: status %d %+v", jr.ID, code, replayed)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if replayed.Status != "done" {
		t.Fatalf("replayed cluster matrix failed: %s", replayed.Error)
	}
	if replayed.TraceID != jr.TraceID {
		t.Fatalf("replayed job's trace_id %q, before the kill %q", replayed.TraceID, jr.TraceID)
	}
	checkMatrixGolden(t, replayed.Result)
	hz, err := http.Get(revived.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Journal struct {
			Enabled      bool  `json:"enabled"`
			ReplayedJobs int64 `json:"replayed_jobs"`
		} `json:"journal"`
	}
	json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if !health.Journal.Enabled || health.Journal.ReplayedJobs < 1 {
		t.Fatalf("revived coordinator healthz journal = %+v, want enabled with >= 1 replayed job", health.Journal)
	}
	revived.cmd.Process.Signal(syscall.SIGTERM)
	if err := revived.cmd.Wait(); err != nil {
		t.Fatalf("revived coordinator did not drain cleanly: %v", err)
	}
}
