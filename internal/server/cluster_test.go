package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vpga/internal/faultinject"
	"vpga/internal/qor"
)

// newTestCoordinator starts a Coordinator over the worker base URLs
// with health probing off (tests flip liveness through traffic, not
// timers) and tears it down with the test.
func newTestCoordinator(t *testing.T, opts CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	if opts.healthInterval == 0 {
		opts.healthInterval = -1
	}
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c, ts
}

// newWorkerFleet starts n in-process worker daemons and returns their
// base URLs.
func newWorkerFleet(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		_, ts := newTestServer(t, Options{Workers: 2})
		urls[i] = ts.URL
	}
	return urls
}

// reindent renders result bytes at canonical standalone indentation,
// so payloads captured at different envelope nesting depths compare
// byte-for-byte (and match the committed golden).
func reindent(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		t.Fatalf("reindent: %v", err)
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

const matrixGoldenPath = "testdata/matrix-single-node.json"

// checkMatrixGolden compares a matrix result against the committed
// single-node golden (CI's chaos job curls the same file against a
// live cluster). VPGAD_UPDATE_GOLDEN=1 rewrites it.
func checkMatrixGolden(t *testing.T, result json.RawMessage) {
	t.Helper()
	got := reindent(t, result)
	if os.Getenv("VPGAD_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(matrixGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(matrixGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(matrixGoldenPath)
	if err != nil {
		t.Fatalf("missing matrix golden (rerun with VPGAD_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("matrix result diverged from %s (%d vs %d bytes); if the flow changed intentionally, rerun with VPGAD_UPDATE_GOLDEN=1",
			matrixGoldenPath, len(got), len(want))
	}
}

// TestRingDeterministicOwnership: every replica of the membership list
// derives the same ring, load spreads over all members, and a death
// remaps only the dead member's keys.
func TestRingDeterministicOwnership(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := newRing(members)
	r2 := newRing([]string{members[2], members[0], members[1]})

	// Real ring keys are SHA-256 hex; hashed key strings stand in here
	// so the sample spreads like content addresses do.
	perNode := map[string]int{}
	owners := map[string]string{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("key-%d", i))))
		o := r1.owner(key)
		if o2 := r2.owner(key); o2 != o {
			t.Fatalf("rings from reordered membership disagree on %q: %q vs %q", key, o, o2)
		}
		owners[key] = o
		perNode[o]++
	}
	for _, m := range members {
		if perNode[m] == 0 {
			t.Fatalf("member %s owns no keys: %v", m, perNode)
		}
	}
	if !r1.setLive(members[1], false) {
		t.Fatal("setLive reported no change taking a live member down")
	}
	moved := 0
	for key, was := range owners {
		now := r1.owner(key)
		if was == members[1] {
			if now == members[1] {
				t.Fatalf("dead member still owns %q", key)
			}
			moved++
		} else if now != was {
			t.Fatalf("key %q moved from surviving member %q to %q", key, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("no keys remapped off the dead member")
	}
	if r1.setLive("http://stranger:1", true) {
		t.Fatal("setLive accepted an unknown member")
	}
	if got := r1.liveMembers(); !reflect.DeepEqual(got, []string{members[0], members[2]}) {
		t.Fatalf("live members %v", got)
	}
}

// TestRingSpreadsLoopbackMembers: members whose names differ only in
// the port still spread their vnodes around the ring, and neither
// member of a two-member ring owns most of the key space.
func TestRingSpreadsLoopbackMembers(t *testing.T) {
	pairs := [][]string{
		{"http://127.0.0.1:41001", "http://127.0.0.1:34567"},
		{"http://127.0.0.1:8081", "http://127.0.0.1:8082"},
		{"http://127.0.0.1:39999", "http://127.0.0.1:40000"},
		{"http://node-a:8080", "http://node-b:8080"},
	}
	for _, members := range pairs {
		r := newRing(members)
		lo, hi := map[string]uint64{}, map[string]uint64{}
		for _, p := range r.points {
			if l, ok := lo[p.node]; !ok || p.hash < l {
				lo[p.node] = p.hash
			}
			if p.hash > hi[p.node] {
				hi[p.node] = p.hash
			}
		}
		for _, m := range members {
			if span := hi[m] - lo[m]; span < 1<<63 {
				t.Errorf("%v: the vnodes of %s span %.1f%% of the ring, want at least half",
					members, m, 100*float64(span)/(1<<64))
			}
		}
		owned := map[string]int{}
		const keys = 10000
		for i := 0; i < keys; i++ {
			owned[r.owner(fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))))]++
		}
		for _, m := range members {
			if owned[m] > keys*70/100 {
				t.Errorf("%v: %s owns %d of %d keys, want at most 70%%", members, m, owned[m], keys)
			}
		}
	}
}

// TestSchedulerPriorityFairnessAndStealing pins the queue discipline:
// priority first, then least-recently-served tenant, then FIFO — and
// an idle node's runner steals from another node's queue.
func TestSchedulerPriorityFairnessAndStealing(t *testing.T) {
	mk := func(priority int, tenant string) *ticket {
		return &ticket{priority: priority, tenant: tenant, home: "n1", res: make(chan ticketOutcome, 1)}
	}
	sc := newScheduler(1) // one runner lane per node
	a, b, c, d := mk(0, "ta"), mk(0, "ta"), mk(0, "tb"), mk(1, "ta")
	for _, tk := range []*ticket{a, b, c, d} {
		if !sc.enqueue(tk) {
			t.Fatal("enqueue refused on an open scheduler")
		}
	}
	up := func() bool { return false }
	var order []*ticket
	for i := 0; i < 4; i++ {
		tk, stolen := sc.next("n1", up)
		if stolen {
			t.Fatal("own-queue pop flagged as a steal")
		}
		order = append(order, tk)
	}
	// d: highest priority. c: tenant tb never served. a then b: FIFO.
	if want := []*ticket{d, c, a, b}; !reflect.DeepEqual(order, want) {
		name := func(tk *ticket) string { return fmt.Sprintf("p%d/%s/seq%d", tk.priority, tk.tenant, tk.seq) }
		var got []string
		for _, tk := range order {
			got = append(got, name(tk))
		}
		t.Fatalf("pop order %v, want priority desc, then least-recently-served tenant, then FIFO", got)
	}

	// Locality guard: a lone ticket on a live node with an idle lane is
	// not steal-eligible — its home runner picks it up, keeping the
	// cell's result on its ring owner.
	e := mk(0, "ta")
	e.home = "n2"
	sc.enqueue(e)
	tk, stolen := sc.next("n2", up)
	if tk != e || stolen {
		t.Fatalf("home runner pop: ticket %v, stolen %v", tk, stolen)
	}

	// n2's only lane is now busy with e, so a lone follow-up ticket on
	// n2 IS stolen by an idle n1 runner.
	f := mk(0, "ta")
	f.home = "n2"
	sc.enqueue(f)
	tk, stolen = sc.next("n1", up)
	if tk != f || !stolen {
		t.Fatalf("saturated-victim steal: ticket %v, stolen %v", tk, stolen)
	}
	sc.release("n2")

	// A backlog of >= 2 is steal-eligible even with idle victim lanes.
	g, h := mk(0, "ta"), mk(0, "tb")
	g.home, h.home = "n2", "n2"
	sc.enqueue(g)
	sc.enqueue(h)
	// Within the stolen queue the discipline still applies: tenant tb
	// was served less recently than ta, so h wins.
	if tk, stolen = sc.next("n1", up); tk != h || !stolen {
		t.Fatalf("backlog steal: ticket %v, stolen %v", tk, stolen)
	}

	// Re-homing a dead node's queue moves every ticket.
	if moved := sc.requeue("n2", func(*ticket) string { return "n3" }); moved != 1 {
		t.Fatalf("requeue moved %d tickets, want 1", moved)
	}
	if d := sc.depth("n3"); d != 1 {
		t.Fatalf("n3 queue depth %d after requeue", d)
	}
	sc.close()
	if sc.enqueue(mk(0, "ta")) {
		t.Fatal("enqueue accepted on a closed scheduler")
	}
}

// TestPeerTierServesWithoutDoubleStore is the three-tier read path
// regression: memory LRU miss, artifact store miss, peer hit — the
// result is served and promoted to the memory cache only, never
// written back to the artifact store, and the next identical request
// is a local LRU hit that consults no peer.
func TestPeerTierServesWithoutDoubleStore(t *testing.T) {
	_, src := newTestServer(t, Options{Workers: 2})
	_, origin := postJSON(t, src, "/v1/runs?wait=1", runBody)
	if origin.Status != "done" {
		t.Fatalf("origin run: %q (%s)", origin.Status, origin.Error)
	}
	resp, err := http.Get(src.URL + "/v1/cache/" + origin.Key)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("origin cache lookup: status %d err %v", resp.StatusCode, err)
	}

	var calls atomic.Int64
	s, ts := newTestServer(t, Options{
		Workers: 2, DataDir: t.TempDir(),
		PeerLookup: func(ctx context.Context, kind, key string) ([]byte, bool) {
			calls.Add(1)
			if kind != "run" || key != origin.Key {
				t.Errorf("peer lookup for %s/%s, want run/%s", kind, key, origin.Key)
			}
			return raw, true
		},
	})
	_, jr := postJSON(t, ts, "/v1/runs?wait=1", runBody)
	if jr.Status != "done" || !jr.Cached {
		t.Fatalf("peer-backed request: status %q cached=%v (%s)", jr.Status, jr.Cached, jr.Error)
	}
	st := s.stats()
	if st.PeerHits != 1 || st.PeerMisses != 0 {
		t.Fatalf("peer counters hits=%d misses=%d", st.PeerHits, st.PeerMisses)
	}
	if st.StoreEntries != 0 {
		t.Fatalf("peer hit double-stored: %d artifact entries", st.StoreEntries)
	}
	// Promoted to the memory LRU: the repeat is local, no second call.
	_, again := postJSON(t, ts, "/v1/runs?wait=1", runBody)
	if !again.Cached {
		t.Fatal("repeat after peer hit missed the local cache")
	}
	if calls.Load() != 1 {
		t.Fatalf("peer consulted %d times, want 1", calls.Load())
	}
	if s.cacheHits.Load() != 1 {
		t.Fatalf("local cache hits = %d after promotion", s.cacheHits.Load())
	}
	// The served bytes match the origin's report.
	ro, rp := reportOf(t, origin), reportOf(t, jr)
	ro.StripMetrics()
	rp.StripMetrics()
	if !reflect.DeepEqual(ro, rp) {
		t.Fatal("peer-served report diverged from the origin")
	}
	if got := s.stats(); got.PeerHits != 1 {
		t.Fatalf("peer hits drifted to %d", got.PeerHits)
	}
}

// TestPeerTierCorruptResponseComputes: undecodable peer bytes are a
// silent miss — the node computes locally instead of failing the job.
func TestPeerTierCorruptResponseComputes(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Workers: 2,
		PeerLookup: func(ctx context.Context, kind, key string) ([]byte, bool) {
			return []byte(`{"this is": not json`), true
		},
	})
	_, jr := postJSON(t, ts, "/v1/runs?wait=1", runBody)
	if jr.Status != "done" || jr.Cached {
		t.Fatalf("corrupt peer response: status %q cached=%v (%s)", jr.Status, jr.Cached, jr.Error)
	}
	st := s.stats()
	if st.PeerHits != 0 || st.PeerMisses != 1 {
		t.Fatalf("peer counters hits=%d misses=%d, want a counted miss", st.PeerHits, st.PeerMisses)
	}
}

// TestPeerFetchFaultInjectionDegrades drives the real peer transport
// (NewPeerLookup against a live node) through the faultinject point:
// an injected transport fault degrades the lookup to a miss and the
// worker computes locally.
func TestPeerFetchFaultInjectionDegrades(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	_, src := newTestServer(t, Options{Workers: 2})
	if _, jr := postJSON(t, src, "/v1/runs?wait=1", runBody); jr.Status != "done" {
		t.Fatalf("warm-up run: %q (%s)", jr.Status, jr.Error)
	}
	key := runKey(t)
	// The live node is the ring's only member, so it owns every key and
	// the lookup always crosses the transport.
	lookup := NewPeerLookup("http://self.invalid", []string{src.URL})
	if _, ok := lookup(context.Background(), "run", key); !ok {
		t.Fatal("peer lookup missed with a healthy transport")
	}
	faultinject.Enable(faultinject.New(1, 1.0, nil, peerFetchPoint))
	if _, ok := lookup(context.Background(), "run", key); ok {
		t.Fatal("injected transport fault did not degrade the lookup to a miss")
	}
	s, ts := newTestServer(t, Options{Workers: 2, PeerLookup: lookup})
	_, jr := postJSON(t, ts, "/v1/runs?wait=1", runBody)
	if jr.Status != "done" || jr.Cached {
		t.Fatalf("run under peer faults: status %q cached=%v (%s)", jr.Status, jr.Cached, jr.Error)
	}
	if st := s.stats(); st.PeerMisses != 1 || st.PeerHits != 0 {
		t.Fatalf("peer counters under faults hits=%d misses=%d", st.PeerHits, st.PeerMisses)
	}
}

// TestCoordinatorForwardsRun: a single run through the coordinator
// lands on the ring owner, matches a direct worker run, and an
// identical resubmission resolves from the cluster's caches.
func TestCoordinatorForwardsRun(t *testing.T) {
	urls := newWorkerFleet(t, 2)
	c, cts := newTestCoordinator(t, CoordinatorOptions{Workers: urls})

	code, jr := httpJSON(t, "POST", cts.URL+"/v1/runs?wait=1", runBody)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("coordinator run: status %d job %q (%s)", code, jr.Status, jr.Error)
	}
	if !strings.HasPrefix(jr.ID, "c") {
		t.Fatalf("coordinator job id %q", jr.ID)
	}
	// Status endpoint serves the finished job.
	stCode, st := httpJSON(t, "GET", cts.URL+"/v1/runs/"+jr.ID, "")
	if stCode != http.StatusOK || st.Status != "done" {
		t.Fatalf("status: %d %q", stCode, st.Status)
	}
	// Same report as running directly on a worker.
	_, direct := httpJSON(t, "POST", urls[0]+"/v1/runs?wait=1", runBody)
	cd, cc := decodeReport(t, direct.Result), decodeReport(t, jr.Result)
	cd.StripMetrics()
	cc.StripMetrics()
	if !reflect.DeepEqual(cd, cc) {
		t.Fatal("coordinator-forwarded run diverged from a direct worker run")
	}
	// Resubmission: the cluster already has the result.
	_, again := httpJSON(t, "POST", cts.URL+"/v1/runs?wait=1", runBody)
	if again.Status != "done" || !again.Cached {
		t.Fatalf("resubmission: status %q cached=%v", again.Status, again.Cached)
	}
	if hits := c.peerHits.Load() + c.workerCacheHits.Load(); hits == 0 {
		t.Fatal("resubmission resolved without any cache hit")
	}
}

// TestCoordinatorMatrixByteIdentical is the tentpole acceptance
// property: a 3-worker coordinator matrix, split into per-cell tickets
// and merged, renders byte-identically to a single node's — and both
// match the committed golden CI verifies against a live cluster.
func TestCoordinatorMatrixByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	_, single := newTestServer(t, Options{Workers: 4})
	refCode, ref := httpJSON(t, "POST", single.URL+"/v1/matrix?wait=1", chaosMatrixBody)
	if refCode != http.StatusOK || ref.Status != "done" {
		t.Fatalf("single-node matrix: status %d job %q (%s)", refCode, ref.Status, ref.Error)
	}
	checkMatrixGolden(t, ref.Result)

	urls := newWorkerFleet(t, 3)
	c, cts := newTestCoordinator(t, CoordinatorOptions{Workers: urls})
	code, jr := httpJSON(t, "POST", cts.URL+"/v1/matrix?wait=1", chaosMatrixBody)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("coordinator matrix: status %d job %q (%s)", code, jr.Status, jr.Error)
	}
	if !bytes.Equal(ref.Result, jr.Result) {
		t.Fatalf("coordinator matrix is not byte-identical to the single node's:\nsingle %d bytes\nmerged %d bytes",
			len(ref.Result), len(jr.Result))
	}
	if got := c.tickets.Load(); got < 16 {
		t.Fatalf("matrix resolved %d tickets, want >= 16 (4 designs x 2 archs x 2 flows)", got)
	}
	// An identical resubmission hits the coordinator's composite cache.
	_, again := httpJSON(t, "POST", cts.URL+"/v1/matrix?wait=1", chaosMatrixBody)
	if !again.Cached || !bytes.Equal(ref.Result, again.Result) {
		t.Fatalf("matrix resubmission: cached=%v, identical=%v", again.Cached, bytes.Equal(ref.Result, again.Result))
	}
	if c.cacheHits.Load() != 1 {
		t.Fatalf("composite cache hits = %d", c.cacheHits.Load())
	}
}

// TestCoordinatorMatrixSurvivesWorkerDeath kills the first worker that
// starts executing a cell — listener closed, in-flight coordinator
// requests severed — and asserts its tickets re-shard onto the
// survivors and the merged matrix still matches the golden.
func TestCoordinatorMatrixSurvivesWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	var kill sync.Once
	servers := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range servers {
		i := i
		_, servers[i] = newTestServer(t, Options{
			Workers: 2,
			testJobStart: func(*job) {
				kill.Do(func() {
					servers[i].Listener.Close()         // refuse new connections
					servers[i].CloseClientConnections() // sever in-flight requests
				})
			},
		})
		urls[i] = servers[i].URL
	}
	c, cts := newTestCoordinator(t, CoordinatorOptions{Workers: urls})
	code, jr := httpJSON(t, "POST", cts.URL+"/v1/matrix?wait=1", chaosMatrixBody)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("matrix through worker death: status %d job %q (%s)", code, jr.Status, jr.Error)
	}
	checkMatrixGolden(t, jr.Result)
	if got := c.reshards.Load(); got < 1 {
		t.Fatalf("reshards = %d after a worker died mid-matrix", got)
	}
}

// TestCoordinatorSweepPeerHitRatio is the scale-out caching
// acceptance: re-running a cached sweep through a fresh coordinator
// resolves >= 90% of tickets from peer/worker caches, visible in the
// cluster rollup metrics, with a byte-identical merged result.
func TestCoordinatorSweepPeerHitRatio(t *testing.T) {
	urls := newWorkerFleet(t, 3)
	sweep := `{"design":"alu","seed":5,"archs":[{"kind":"lut"},{"kind":"granular"},{"kind":"custom","name":"coarse-lut2","nand":1,"lut":2,"ff":1}]}`

	// Reference: the same sweep on a single node.
	_, single := newTestServer(t, Options{Workers: 4})
	_, ref := httpJSON(t, "POST", single.URL+"/v1/sweeps/granularity?wait=1", sweep)
	if ref.Status != "done" {
		t.Fatalf("single-node sweep: %q (%s)", ref.Status, ref.Error)
	}

	_, cts1 := newTestCoordinator(t, CoordinatorOptions{Workers: urls})
	_, first := httpJSON(t, "POST", cts1.URL+"/v1/sweeps/granularity?wait=1", sweep)
	if first.Status != "done" {
		t.Fatalf("cluster sweep: %q (%s)", first.Status, first.Error)
	}
	if !bytes.Equal(ref.Result, first.Result) {
		t.Fatal("cluster sweep is not byte-identical to the single node's")
	}

	// A fresh coordinator has no composite cache — every ticket must
	// resolve through the peer tier against the warm workers.
	c2, cts2 := newTestCoordinator(t, CoordinatorOptions{Workers: urls})
	_, again := httpJSON(t, "POST", cts2.URL+"/v1/sweeps/granularity?wait=1", sweep)
	if again.Status != "done" {
		t.Fatalf("re-run sweep: %q (%s)", again.Status, again.Error)
	}
	if !bytes.Equal(ref.Result, again.Result) {
		t.Fatal("cached cluster sweep diverged")
	}
	if ratio := c2.peerHitRatio(); ratio < 0.9 {
		t.Fatalf("peer hit ratio %.3f on a cached sweep, want >= 0.9 (hits %d+%d over %d tickets)",
			ratio, c2.peerHits.Load(), c2.workerCacheHits.Load(), c2.tickets.Load())
	}
	text := metricsText(t, cts2)
	if v, ok := metricValue(text, "vpgad_cluster_peer_hit_ratio"); !ok || v < 0.9 {
		t.Fatalf("vpgad_cluster_peer_hit_ratio = %v (present %v), want >= 0.9", v, ok)
	}
	if v, ok := metricValue(text, "vpgad_cluster_nodes_up"); !ok || v != 3 {
		t.Fatalf("vpgad_cluster_nodes_up = %v (present %v), want 3", v, ok)
	}
}

// TestBatchSubmission: POST /v1/batch validates every item up front,
// launches them all with their priorities/tenants, and each job is
// pollable to completion; one bad item rejects the whole batch.
func TestBatchSubmission(t *testing.T) {
	urls := newWorkerFleet(t, 2)
	c, cts := newTestCoordinator(t, CoordinatorOptions{Workers: urls})

	// A bad item rejects the whole batch before anything launches.
	resp, err := http.Post(cts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"jobs":[{"kind":"run","request":`+runBody+`},{"kind":"nope","request":{}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch: status %d, want 400", resp.StatusCode)
	}
	if got := c.tickets.Load(); got != 0 {
		t.Fatalf("rejected batch still ran %d tickets", got)
	}

	batch := fmt.Sprintf(`{"jobs":[
		{"kind":"run","priority":1,"tenant":"interactive","request":%s},
		{"kind":"run","tenant":"bulk","request":{"design":"alu","arch":{"kind":"lut"},"flow":"b","seed":7}}
	]}`, runBody)
	resp, err = http.Post(cts.URL+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(br.Jobs) != 2 {
		t.Fatalf("batch: status %d, %d jobs", resp.StatusCode, len(br.Jobs))
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, j := range br.Jobs {
		if j.ID == "" {
			t.Fatalf("batch job missing id: %+v", j)
		}
		for {
			code, st := httpJSON(t, "GET", cts.URL+"/v1/runs/"+j.ID, "")
			if code == http.StatusOK && st.Status == "done" {
				break
			}
			if st.Status == "failed" || time.Now().After(deadline) {
				t.Fatalf("batch job %s: status %q (%s)", j.ID, st.Status, st.Error)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if c.batches.Load() != 1 {
		t.Fatalf("batches counter = %d", c.batches.Load())
	}
}

// TestBackpressureBudgetOutlastsAttemptBound is the bugfix regression:
// a saturated worker answers 429 — with the Retry-After hint the
// coordinator must honor — far more times than the re-shard attempt
// bound, and the ticket has to wait the backlog out rather than fail.
// This is exactly the lone-survivor shape: one live node grinding
// through a re-sharded matrix keeps refusing work long past
// len(nodes)+4 polls.
func TestBackpressureBudgetOutlastsAttemptBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second backpressure wait in -short mode")
	}
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 1,
		testJobStart: func(*job) { <-release },
	})
	c, cts := newTestCoordinator(t, CoordinatorOptions{Workers: []string{ts.URL}})

	// Three distinct runs: one runs (gated), one queues, the third
	// bounces on 429 until the gate opens.
	var wg sync.WaitGroup
	statuses := make([]string, 3)
	errs := make([]string, 3)
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"design":"alu","arch":{"kind":"granular"},"flow":"b","seed":%d}`, 40+i)
			resp, err := http.Post(cts.URL+"/v1/runs?wait=1", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			var jr jobResponse
			if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
				errs[i] = err.Error()
				return
			}
			statuses[i], errs[i] = jr.Status, jr.Error
		}(i)
	}
	// All retries land on the single bouncing ticket, so the global
	// counter is that ticket's attempt count. Outlast the old bound.
	bound := int64(c.maxTicketAttempts())
	deadline := time.Now().Add(30 * time.Second)
	for c.ticketRetries.Load() <= bound {
		if time.Now().After(deadline) {
			t.Fatalf("saw only %d backpressure retries (want > %d)", c.ticketRetries.Load(), bound)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, st := range statuses {
		if st != "done" {
			t.Fatalf("job %d: status %q (%s) — backpressure must be waited out, not fatal", i, st, errs[i])
		}
	}
}

// TestCoordinatorReplaysBatchCoordinates: a coordinator with a data
// directory journals each batch job with its priority and tenant, and
// a restarted coordinator replays an unfinished one under its original
// ID with both coordinates.
func TestCoordinatorReplaysBatchCoordinates(t *testing.T) {
	urls := newWorkerFleet(t, 1)
	dataDir := t.TempDir()
	c1, cts1 := newTestCoordinator(t, CoordinatorOptions{Workers: urls, DataDir: dataDir})
	code, _ := httpJSON(t, "POST", cts1.URL+"/v1/batch",
		`{"jobs":[{"kind":"run","priority":2,"tenant":"bulk","request":`+runBody+`}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch: status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	jn, entries, err := openJournal(filepath.Join(dataDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var accepted *journalEntry
	for i := range entries {
		if entries[i].State == "accepted" {
			accepted = &entries[i]
		}
	}
	if accepted == nil || accepted.Kind != "run" || accepted.Priority != 2 || accepted.Tenant != "bulk" {
		t.Fatalf("journaled batch job %+v, want a run at priority 2 for tenant bulk", accepted)
	}
	// An unfinished batch job, as a SIGKILL leaves it.
	replay := *accepted
	replay.ID = "c000042"
	if err := jn.append(replay, true); err != nil {
		t.Fatal(err)
	}
	jn.close()

	c2, cts2 := newTestCoordinator(t, CoordinatorOptions{Workers: urls, DataDir: dataDir})
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, st := httpJSON(t, "GET", cts2.URL+"/v1/runs/c000042", "")
		if code == http.StatusOK && st.Status == "done" {
			break
		}
		if st.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("replayed batch job: status %d %+v", code, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c2.mu.Lock()
	j := c2.jobs["c000042"]
	c2.mu.Unlock()
	if j.priority != 2 || j.tenant != "bulk" || !j.replayed {
		t.Fatalf("replayed job priority %d tenant %q replayed %v, want 2/bulk/true", j.priority, j.tenant, j.replayed)
	}
}

// TestCoordinatorTimeoutAndLedger: a coordinator honours JobTimeout —
// the job fails as a timeout without marking a healthy node down — and
// LedgerPath, appending a computed run's record but not a cache hit's.
func TestCoordinatorTimeoutAndLedger(t *testing.T) {
	urls := newWorkerFleet(t, 1)
	c, cts := newTestCoordinator(t, CoordinatorOptions{Workers: urls, JobTimeout: time.Nanosecond})
	code, jr := httpJSON(t, "POST", cts.URL+"/v1/runs?wait=1", runBody)
	if code != http.StatusOK || jr.Status != "failed" || jr.ErrorKind != "timeout" {
		t.Fatalf("1ns coordinator job: status %d job %q kind %q (%s)", code, jr.Status, jr.ErrorKind, jr.Error)
	}
	if got := c.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	if h := getCoordHealth(t, cts.URL); h.NodesUp != 1 {
		t.Fatalf("a job timeout took a healthy node down: nodes_up %d", h.NodesUp)
	}

	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	_, cts2 := newTestCoordinator(t, CoordinatorOptions{Workers: urls, LedgerPath: ledger})
	for i := 0; i < 2; i++ {
		if _, jr := httpJSON(t, "POST", cts2.URL+"/v1/runs?wait=1", runBody); jr.Status != "done" || jr.Cached != (i == 1) {
			t.Fatalf("run %d: status %q cached=%v (%s)", i, jr.Status, jr.Cached, jr.Error)
		}
	}
	recs, err := qor.Read(ledger)
	if err != nil {
		t.Fatalf("read ledger: %v", err)
	}
	if len(recs) != 1 || recs[0].Key != runKey(t) {
		t.Fatalf("coordinator ledger has %d records (%+v), want the one computed run", len(recs), recs)
	}
}
