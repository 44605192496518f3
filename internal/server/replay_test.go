package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vpga/internal/core"
)

// TestCellTicketKeysMatchWorkerKeys: the key a coordinator derives for
// a composite cell is the key a worker derives when it parses the
// cell's body. If the two ever drift, every replay misses the workers'
// caches and silently recomputes. The cells are the ones fanOut ships:
// every matrix cell at both scales, with a non-integer pinned clock
// and the defect knobs, and every granularity-sweep cell over the
// default family, a custom arch and inline RTL.
func TestCellTicketKeysMatchWorkerKeys(t *testing.T) {
	// Every pin reports a clock (a sweep's) and an arrival (a matrix's,
	// times 1.2) that pin its dependents to non-integer clocks.
	pin := core.Report{ClockPeriod: 1234.5678, MaxArrival: 1028.8065}
	var (
		mu    sync.Mutex
		cells []core.FlowRequest
	)
	record := ticketFunc(func(req core.FlowRequest, label, _ string) (*core.Report, string, error) {
		mu.Lock()
		cells = append(cells, req)
		mu.Unlock()
		rep := pin
		return &rep, label, nil
	})
	ctx := context.Background()
	for _, body := range []string{
		`{}`,
		`{"scale":"paper","seed":7,"place_effort":3}`,
		`{"seed":3,"place_effort":1,"defect_rate":0.3,"defect_seed":3,"repair_budget":-1}`,
		`{"scale":"paper","seed":2,"defect_rate":0.02,"defect_seed":9}`,
	} {
		sp, err := parseSpec("matrix", []byte(body))
		if err != nil {
			t.Fatalf("matrix %s: %v", body, err)
		}
		before := len(cells)
		if _, err := sp.req.(composite).fanOut(ctx, record, nil); err != nil {
			t.Fatalf("matrix %s: %v", body, err)
		}
		if n := len(cells) - before; n != 16 {
			t.Fatalf("matrix %s shipped %d cells, want 16", body, n)
		}
	}
	for _, body := range []string{
		`{"design":"alu","seed":5}`,
		`{"design":"fir","scale":"paper","archs":[{"kind":"custom","name":"wide","mux":4,"xoa":2,"nand":2,"lut":1,"ff":2},{"kind":"lut"}]}`,
		`{"rtl":"module m(input a, input b, output y); assign y = a & b; endmodule","seed":1,` +
			`"archs":[{"kind":"granular"},{"kind":"custom","mux":2,"xoa":1,"nand":1,"ff":1}]}`,
	} {
		sp, err := parseSpec("sweep/granularity", []byte(body))
		if err != nil {
			t.Fatalf("sweep %s: %v", body, err)
		}
		if _, err := sp.req.(composite).fanOut(ctx, record, nil); err != nil {
			t.Fatalf("sweep %s: %v", body, err)
		}
	}
	pinned := 0
	for _, req := range cells {
		body, key, err := cellTicket(req)
		if err != nil {
			t.Fatalf("cell %+v: %v", req, err)
		}
		sp, err := runKind.spec(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("a worker refuses cell %s: %v", body, err)
		}
		if sp.key != key {
			t.Errorf("cell %s: coordinator key %s, worker key %s", body, key, sp.key)
		}
		if req.ClockPeriod != math.Trunc(req.ClockPeriod) {
			pinned++
		}
	}
	if want := 4*16 + 6 + 2 + 2; len(cells) != want {
		t.Fatalf("checked %d cells, want %d", len(cells), want)
	}
	if want := 4*12 + 5 + 1 + 1; pinned != want {
		t.Fatalf("%d cells pinned to the non-integer clock, want %d", pinned, want)
	}
}

// FuzzRunSpec: any POST /v1/runs body parses into a spec or an error,
// never a panic. A spec's canonical form parses again to the same key
// and label, and cellTicket keys that form as the worker keyed the
// body, so a coordinator and a worker agree on every run they accept.
func FuzzRunSpec(f *testing.F) {
	for _, body := range []string{
		runBody,
		`{"design":"fir","scale":"paper","flow":"a","seed":-3,"clock_period":1234.5678}`,
		`{"rtl":"module m(input a, output y); assign y = a; endmodule","name":"m","verify":true}`,
		`{"design":"alu","arch":{"kind":"custom","mux":64,"xoa":64,"nand":64,"lut":64,"ff":64}}`,
		`{"design":"alu","arch":{"kind":"custom","name":"wide","mux":65}}`,
		`{"design":"alu","arch":{"kind":"custom","mux":1,"ff":-1}}`,
		`{"design":"switch","defect_rate":0.02,"defect_seed":7,"repair_budget":-1,"place_effort":2}`,
		`{"design":"alu","sede":3}`,
		`{"design":"alu","rtl":"module m; endmodule"}`,
		`[]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := runKind.spec(bytes.NewReader(body))
		if err != nil {
			return
		}
		cell, key, err := cellTicket(sp.req.(runRequest).Normalize())
		if err != nil {
			t.Fatalf("cellTicket of %s: %v", body, err)
		}
		if key != sp.key {
			t.Fatalf("body %s: worker key %s, coordinator key %s", body, sp.key, key)
		}
		again, err := runKind.spec(bytes.NewReader(cell))
		if err != nil {
			t.Fatalf("the canonical form %s of %s is refused: %v", cell, body, err)
		}
		if again.key != sp.key || again.label != sp.label {
			t.Fatalf("body %s keys %s as %q, its canonical form %s keys %s as %q",
				body, sp.key, sp.label, cell, again.key, again.label)
		}
	})
}

// blockedCluster is a coordinator with one ticket lane per node and a
// one-entry composite cache over two single-slot workers without a
// data directory or a peer tier, so a node answers only for what it
// computed itself. A blocker run holds its owner's only slot, so the
// owner's coordinator lane stays busy and the other node, the thief,
// steals every head homed on the owner.
type blockedCluster struct {
	c            *Coordinator
	url          string // the coordinator's
	srv          map[string]*Server
	urls         []string
	owner, thief string
	held         chan struct{}
	unblock      func()
}

const blockerBody = `{"design":"alu","seed":99,"place_effort":1}`

func newBlockedCluster(t *testing.T) *blockedCluster {
	t.Helper()
	blocker, err := runKind.spec(strings.NewReader(blockerBody))
	if err != nil {
		t.Fatal(err)
	}
	b := &blockedCluster{srv: map[string]*Server{}, held: make(chan struct{})}
	release := make(chan struct{})
	var heldOnce, releaseOnce sync.Once
	b.unblock = func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(b.unblock) // a failed test must not leave a worker job blocked
	hold := func(j *job) {
		if j.key == blocker.key {
			heldOnce.Do(func() { close(b.held) })
			<-release
		}
	}
	for i := 0; i < 2; i++ {
		s, ts := newTestServer(t, Options{Workers: 1, testJobStart: hold})
		b.srv[ts.URL], b.urls = s, append(b.urls, ts.URL)
	}
	c, cts := newTestCoordinator(t, CoordinatorOptions{Workers: b.urls, NodeConcurrency: 1, CacheSize: 1})
	b.c, b.url = c, cts.URL
	b.owner = c.ring.owner(blocker.key)
	b.thief = b.urls[0]
	if b.thief == b.owner {
		b.thief = b.urls[1]
	}
	return b
}

// seed returns the first matrix seed whose pins the blocked owner owns
// at least one of, so at least one head is stolen, and that pin's key.
func (b *blockedCluster) seed(t *testing.T) (int64, string) {
	t.Helper()
	for seed := int64(1); ; seed++ {
		plan := core.MatrixPlan{Scale: "test", Seed: seed, PlaceEffort: 1}
		for _, d := range core.MatrixDesignNames() {
			_, key, err := cellTicket(plan.PinTicket(d))
			if err != nil {
				t.Fatal(err)
			}
			if b.c.ring.owner(key) == b.owner {
				return seed, key
			}
		}
	}
}

// coldMatrix runs body while the blocker holds the owner, then lets the
// blocker finish, and returns the matrix result.
func (b *blockedCluster) coldMatrix(t *testing.T, body string) json.RawMessage {
	t.Helper()
	if code, jr := httpJSON(t, "POST", b.url+"/v1/runs", blockerBody); code != http.StatusAccepted {
		t.Fatalf("blocker run: status %d (%s)", code, jr.Error)
	}
	select {
	case <-b.held:
	case <-time.After(30 * time.Second):
		t.Fatal("the blocker run never reached its owner")
	}
	code, cold := httpJSON(t, "POST", b.url+"/v1/matrix?wait=1", body)
	if code != http.StatusOK || cold.Status != "done" {
		t.Fatalf("cold matrix: status %d job %q (%s)", code, cold.Status, cold.Error)
	}
	b.unblock()
	if code, jr := httpJSON(t, "POST", b.url+"/v1/runs?wait=1", blockerBody); code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("blocker run: status %d job %q (%s)", code, jr.Status, jr.Error)
	}
	// The cold matrix ran every cell on the thief; the owner ran only
	// the blocker.
	for node, want := range map[string]int64{b.thief: 16, b.owner: 1} {
		if got := b.c.nodes[node].dispatched.Load(); got != want {
			t.Errorf("%s ran %d tickets, want %d", node, got, want)
		}
	}
	return cold.Result
}

// matrixCellKeys returns the content addresses of a test-scale matrix's
// 16 cells: the pins, and the dependents at the clock result reports.
func matrixCellKeys(t *testing.T, plan core.MatrixPlan, result json.RawMessage) []string {
	t.Helper()
	var m MatrixResult
	if err := json.Unmarshal(result, &m); err != nil {
		t.Fatal(err)
	}
	suite, err := core.MatrixSuite(plan.Scale)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i, d := range suite.All() {
		name := core.MatrixDesignNames()[i]
		reqs := []core.FlowRequest{plan.PinTicket(name)}
		for _, cell := range plan.DependentTickets(name, m.Reports[d.Name]["granular-plb"]["flow b"].ClockPeriod) {
			reqs = append(reqs, cell.Req)
		}
		for _, req := range reqs {
			_, key, err := cellTicket(req)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
		}
	}
	return keys
}

// TestOffOwnerResultFetchedWhereItRan: a cell that ran off its ring
// owner (a stolen head, or a follower homed on its head's node) leaves
// its result there, and a replay fetches it there instead of
// recomputing it. With a stolen pin's entry gone the replay falls back
// to the owner, and with the thief down to the owner and then to
// compute.
func TestOffOwnerResultFetchedWhereItRan(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix runs in -short mode")
	}
	b := newBlockedCluster(t)
	c, srv, urls, owner, thief := b.c, b.srv, b.urls, b.owner, b.thief
	seed, pinKey := b.seed(t)
	m1 := fmt.Sprintf(`{"seed":%d,"place_effort":1}`, seed)
	// m2 is a different matrix (its own composite key, so it evicts m1
	// from the one-entry composite cache) over the same cells.
	m2 := fmt.Sprintf(`{"seed":%d,"place_effort":1,"continue_on_error":true}`, seed)
	coldResult := b.coldMatrix(t, m1)

	// Every cell ran on the thief, so the off-owner entries are the
	// cells the blocked node owns: its stolen heads and their
	// followers, and the followers of the thief's own heads that the
	// blocked node owns.
	owned := 0
	for _, key := range matrixCellKeys(t, core.MatrixPlan{Scale: "test", Seed: seed, PlaceEffort: 1}, coldResult) {
		if c.ring.owner(key) == owner {
			owned++
		}
	}
	if stolen := c.steals.Load(); stolen == 0 || c.ranOn.len() != owned {
		t.Fatalf("%d tickets stolen, %d off-owner entries; want > 0 stolen and %d entries, one per cell the blocked node owns",
			stolen, c.ranOn.len(), owned)
	}
	c.ranOn.mu.Lock()
	for key, el := range c.ranOn.m {
		if node := el.Value.(*lruEntry).val; node != thief || c.ring.owner(key) != owner {
			t.Errorf("off-owner entry %s: ran on %v, owned by %s; want ran on %s, owned by %s",
				key, node, c.ring.owner(key), thief, owner)
		}
	}
	c.ranOn.mu.Unlock()

	// replay posts a matrix that misses the composite cache and asserts
	// which tickets it dispatched to each node and how many cells each
	// node served from its cache.
	replay := func(body string, dispatched, served map[string]int64) {
		t.Helper()
		d0, s0 := map[string]int64{}, map[string]int64{}
		for _, u := range urls {
			d0[u], s0[u] = c.nodes[u].dispatched.Load(), srv[u].peerServed.Load()
		}
		hits := c.cacheHits.Load()
		code, jr := httpJSON(t, "POST", b.url+"/v1/matrix?wait=1", body)
		if code != http.StatusOK || jr.Status != "done" {
			t.Fatalf("replay %s: status %d job %q (%s)", body, code, jr.Status, jr.Error)
		}
		if c.cacheHits.Load() != hits {
			t.Fatalf("replay %s hit the composite cache", body)
		}
		if !bytes.Equal(jr.Result, coldResult) {
			t.Fatalf("replay %s is not byte-identical to the cold matrix", body)
		}
		for _, u := range urls {
			if d := c.nodes[u].dispatched.Load() - d0[u]; d != dispatched[u] {
				t.Errorf("replay %s dispatched %d tickets to %s, want %d", body, d, u, dispatched[u])
			}
			if s := srv[u].peerServed.Load() - s0[u]; s != served[u] {
				t.Errorf("replay %s: %s served %d cells from its cache, want %d", body, u, s, served[u])
			}
		}
	}
	// Every cell now lives on the thief: a replay dispatches nothing.
	replay(m2, nil, map[string]int64{thief: 16})
	replay(m1, nil, map[string]int64{thief: 16})

	// A stolen pin's entry gone: the owner misses, and the pin computes
	// there. Its follower is still found on the thief, through its own
	// entry or its owner.
	c.ranOn.remove(pinKey)
	replay(m2, map[string]int64{owner: 1}, map[string]int64{thief: 15})

	// Thief down: its entries go, and every cell falls to the owner,
	// which serves the one it computed and computes the rest.
	c.markDown(c.nodes[thief])
	replay(m1, map[string]int64{owner: 15}, map[string]int64{owner: 1})
	if n := c.ranOn.len(); n != 0 {
		t.Fatalf("%d off-owner entries survive their node going down", n)
	}
}

// TestWarmReplaysReuseConnections: warm matrix replays reuse the
// coordinator's keep-alive connections to the workers instead of
// dialing new ones, and Shutdown closes every one of them. The cluster
// is the replay benchmark's without the peer tier, so every connection
// a worker accepts is the coordinator's.
func TestWarmReplaysReuseConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix runs in -short mode")
	}
	var dialed, open atomic.Int64
	var urls []string
	for i := 0; i < 2; i++ {
		s, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(s)
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				dialed.Add(1)
				open.Add(1)
			case http.StateHijacked, http.StateClosed:
				open.Add(-1)
			}
		}
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(context.Background())
		})
		urls = append(urls, ts.URL)
	}
	c, cts := newTestCoordinator(t, CoordinatorOptions{Workers: urls, NodeConcurrency: 2, CacheSize: 1})
	matrices := []string{`{"seed":1,"place_effort":1}`, `{"seed":2,"place_effort":1}`}
	var cold [2]json.RawMessage
	for i, m := range matrices {
		code, jr := httpJSON(t, "POST", cts.URL+"/v1/matrix?wait=1", m)
		if code != http.StatusOK || jr.Status != "done" {
			t.Fatalf("cold matrix %s: status %d job %q (%s)", m, code, jr.Status, jr.Error)
		}
		cold[i] = jr.Result
	}
	before := dialed.Load()
	const replays = 200
	for i := 0; i < replays; i++ {
		code, jr := httpJSON(t, "POST", cts.URL+"/v1/matrix?wait=1", matrices[i%2])
		if code != http.StatusOK || jr.Status != "done" || !bytes.Equal(jr.Result, cold[i%2]) {
			t.Fatalf("replay %d: status %d job %q (%s), or a result unlike the cold one", i, code, jr.Status, jr.Error)
		}
	}
	n := dialed.Load() - before
	t.Logf("%d warm replays opened %d new worker connections", replays, n)
	if n > 20 {
		t.Errorf("%d warm replays opened %d new worker connections, want at most 20", replays, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); open.Load() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d coordinator connections to the workers still open after Shutdown", open.Load())
		}
	}
}

// BenchmarkCoordinatorMatrixReplay times a warm cluster replay of the
// Table 1/2 matrix (benchCluster). Two warm matrices replay
// alternately, so every replay misses the composite cache and resolves
// its 16 cells from the workers' caches.
func BenchmarkCoordinatorMatrixReplay(b *testing.B) {
	post := benchCluster(b)
	matrices := []string{`{"seed":1,"place_effort":3}`, `{"seed":2,"place_effort":3}`}
	for _, m := range matrices {
		post(m) // cold
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(matrices[i%2])
	}
}
