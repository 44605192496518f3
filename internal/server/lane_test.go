package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vpga/internal/core"
)

// stageTotals sums the workers' stage-cache counters.
func stageTotals(srv map[string]*Server) core.StageCacheStats {
	sum := core.StageCacheStats{}
	for _, s := range srv {
		for stage, n := range s.stages.Stats() {
			acc := sum[stage]
			acc.Hits += n.Hits
			acc.Misses += n.Misses
			sum[stage] = acc
		}
	}
	return sum
}

// checkAnnealsOncePerPair asserts that a cold test-scale matrix
// annealed each of its 8 (design, arch) pairs once: every flow b
// restored its flow a's compacted netlist and placement.
func checkAnnealsOncePerPair(t *testing.T, st core.StageCacheStats) {
	t.Helper()
	for _, stage := range []string{core.StageCompact, core.StagePlace} {
		if got := st[stage]; got.Misses != 8 || got.Hits != 8 {
			t.Errorf("%s counters %+v over the workers, want 8 misses and 8 hits", stage, got)
		}
	}
}

// TestCoordinatorMatrixAnnealsOncePerPair: the coordinator runs a
// matrix as RunMatrix does, one lane per (design, arch), and each
// lane's flow b goes to the worker that ran its flow a, whose
// in-memory stage tier hands it the placement. The merged result is the
// single-node golden; a replay, through the same coordinator or a fresh
// one, dispatches nothing, because a follower is looked up on its
// lane's node first.
func TestCoordinatorMatrixAnnealsOncePerPair(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix runs in -short mode")
	}
	// A matrix has at most 8 tickets out at once (two lanes per design),
	// so with 8 lanes per node a ticket seldom waits in the
	// coordinator's queue and is seldom stolen, and the workers' queues
	// take 8 without answering 429.
	srv := map[string]*Server{}
	var urls []string
	for i := 0; i < 2; i++ {
		s, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
		srv[ts.URL], urls = s, append(urls, ts.URL)
	}
	c, cts := newTestCoordinator(t, CoordinatorOptions{Workers: urls, NodeConcurrency: 8, CacheSize: 1})
	code, cold := httpJSON(t, "POST", cts.URL+"/v1/matrix?wait=1", chaosMatrixBody)
	if code != http.StatusOK || cold.Status != "done" {
		t.Fatalf("cold matrix: status %d job %q (%s)", code, cold.Status, cold.Error)
	}
	checkMatrixGolden(t, cold.Result)
	checkAnnealsOncePerPair(t, stageTotals(srv))

	// replay posts a matrix over the cold one's cells that misses the
	// composite cache and asserts that it dispatched no ticket.
	replay := func(co *Coordinator, url, body string) {
		t.Helper()
		var before int64
		for _, u := range urls {
			before += co.nodes[u].dispatched.Load()
		}
		code, jr := httpJSON(t, "POST", url+"/v1/matrix?wait=1", body)
		if code != http.StatusOK || jr.Status != "done" || jr.Cached {
			t.Fatalf("replay %s: status %d job %q cached %v (%s)", body, code, jr.Status, jr.Cached, jr.Error)
		}
		if !bytes.Equal(jr.Result, cold.Result) {
			t.Fatalf("replay %s is not byte-identical to the cold matrix", body)
		}
		var after int64
		for _, u := range urls {
			after += co.nodes[u].dispatched.Load()
		}
		if after != before {
			t.Errorf("replay %s dispatched %d tickets, want 0", body, after-before)
		}
	}
	replay(c, cts.URL, `{"seed":7,"place_effort":3,"continue_on_error":true}`)
	// A fresh coordinator knows no off-owner node: it finds a head on
	// its ring owner only if the head was not stolen.
	if c.steals.Load() == 0 {
		c2, cts2 := newTestCoordinator(t, CoordinatorOptions{Workers: urls, NodeConcurrency: 8, CacheSize: 1})
		replay(c2, cts2.URL, chaosMatrixBody)
	} else {
		t.Logf("the cold matrix stole %d heads; no fresh-coordinator replay", c.steals.Load())
	}

	// The cluster status shows each worker's place hit ratio: one hit
	// per miss on a node that ran a pair.
	for _, u := range urls {
		if !c.nodes[u].healthy(context.Background()) {
			t.Fatalf("worker %s unhealthy", u)
		}
	}
	var status struct {
		Nodes []clusterNodeStat `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(fetchText(t, cts.URL+"/v1/cluster/status")), &status); err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, n := range status.Nodes {
		own := srv[n.Node].stages.Stats()[core.StagePlace]
		got, ok := n.StageCache[core.StagePlace]
		if own.Hits+own.Misses == 0 {
			continue
		}
		ran++
		if !ok || got.Hits != own.Hits || got.Misses != own.Misses || got.HitRatio != 0.5 {
			t.Errorf("node %s: cluster status place %+v (present %v), worker counts %+v; want its counts at ratio 0.5",
				n.Node, got, ok, own)
		}
	}
	if ran == 0 {
		t.Error("no worker shows place counters in the cluster status")
	}
}

// TestCoordinatorMatrixAnnealsOncePerPairStolen: a stolen head takes
// its lane with it. Every head homed on the blocked owner is stolen, so
// all 16 cells run on the thief, and each follower, the stolen heads'
// included, restores its head's placement there.
func TestCoordinatorMatrixAnnealsOncePerPairStolen(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix runs in -short mode")
	}
	b := newBlockedCluster(t)
	seed, _ := b.seed(t)
	b.coldMatrix(t, fmt.Sprintf(`{"seed":%d,"place_effort":1}`, seed))
	if b.c.steals.Load() == 0 {
		t.Fatal("no head was stolen")
	}
	checkAnnealsOncePerPair(t, b.srv[b.thief].stages.Stats())
}

// FuzzCompositeSpec: any matrix or sweep body parses into a spec or an
// error, never a panic, and a spec's canonical form parses again to the
// same key and label. A composite's fanOut, run with a recording ticket
// function (no flow runs), ships only cells a worker accepts, keyed as
// cellTicket keys them, and sends each matrix flow b after the node its
// flow a reported; a sweep's cells follow nothing.
func FuzzCompositeSpec(f *testing.F) {
	kindNames := []string{"matrix", "sweep/granularity", "sweep/routing"}
	for _, seed := range []struct {
		kind uint8
		body string
	}{
		{0, `{}`},
		{0, `{"scale":"paper","seed":7,"place_effort":3}`},
		{0, `{"seed":3,"place_effort":1,"defect_rate":0.3,"defect_seed":3,"repair_budget":-1}`},
		{0, `{"scale":"paper","seed":2,"defect_rate":0.02,"defect_seed":9}`},
		{0, `{"seed":1,"continue_on_error":true,"parallel":4}`},
		{0, `{"scale":"bogus"}`},
		{0, `{"place_effort":-1}`},
		{0, `{"defect_rate":1}`},
		{0, `{"seed":"7"}`},
		{1, `{"design":"alu","seed":5}`},
		{1, `{"design":"fir","scale":"paper","archs":[{"kind":"custom","name":"wide","mux":4,"xoa":2,"nand":2,"lut":1,"ff":2},{"kind":"lut"}]}`},
		{1, `{"rtl":"module m(input a, input b, output y); assign y = a & b; endmodule","seed":1,` +
			`"archs":[{"kind":"granular"},{"kind":"custom","mux":2,"xoa":1,"nand":1,"ff":1}]}`},
		{1, `{"design":"nope"}`},
		{1, `{"design":"alu","archs":[{"kind":"custom","mux":65}]}`},
		{1, `{"design":"alu","rtl":"module m; endmodule"}`},
		{2, `{"design":"alu","capacities":[4,8]}`},
		{2, `{"design":"fir","scale":"paper","arch":{"kind":"lut"},"seed":3}`},
		{2, `{"design":"alu","capacities":[0]}`},
		{2, `{"design":"alu","capacities":[4097]}`},
		{2, `[]`},
	} {
		f.Add(seed.kind, []byte(seed.body))
	}
	pin := core.Report{ClockPeriod: 1234.5678, MaxArrival: 1028.8065}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		name := kindNames[int(which)%len(kindNames)]
		sp, err := parseSpec(name, body)
		if err != nil {
			return
		}
		canonical, _, err := sp.req.check()
		if err != nil {
			t.Fatalf("%s %s: check of a parsed spec fails: %v", name, body, err)
		}
		form, err := json.Marshal(canonical)
		if err != nil {
			t.Fatal(err)
		}
		again, err := parseSpec(name, form)
		if err != nil {
			t.Fatalf("%s %s: the canonical form %s is refused: %v", name, body, form, err)
		}
		if again.key != sp.key || again.label != sp.label {
			t.Fatalf("%s %s keys %s as %q, its canonical form %s keys %s as %q",
				name, body, sp.key, sp.label, form, again.key, again.label)
		}
		comp, ok := sp.req.(composite)
		if !ok {
			return
		}
		type shipped struct {
			req          core.FlowRequest
			label, after string
		}
		var (
			mu    sync.Mutex
			cells []shipped
		)
		record := ticketFunc(func(req core.FlowRequest, label, after string) (*core.Report, string, error) {
			mu.Lock()
			cells = append(cells, shipped{req, label, after})
			mu.Unlock()
			rep := pin
			return &rep, label, nil // a cell's node is its label
		})
		if _, err := comp.fanOut(context.Background(), record, nil); err != nil {
			t.Fatalf("%s %s: fanOut: %v", name, body, err)
		}
		heads := map[string]string{} // design/arch -> its flow a's label
		for _, c := range cells {
			if c.req.Flow == "a" {
				heads[c.req.Design+"/"+c.req.Arch.Kind] = c.label
			}
		}
		for _, c := range cells {
			cell, key, err := cellTicket(c.req)
			if err != nil {
				t.Fatalf("cell %+v: %v", c.req, err)
			}
			sp, err := runKind.spec(bytes.NewReader(cell))
			if err != nil {
				t.Fatalf("%s %s: a worker refuses cell %s: %v", name, body, cell, err)
			}
			if sp.key != key {
				t.Fatalf("cell %s: coordinator key %s, worker key %s", cell, key, sp.key)
			}
			want := ""
			if name == "matrix" && c.req.Flow == "b" {
				want = heads[c.req.Design+"/"+c.req.Arch.Kind]
			}
			if c.after != want {
				t.Fatalf("%s %s: cell %s ran after %q, want %q", name, body, c.label, c.after, want)
			}
		}
		if name == "matrix" && len(cells) != 16 {
			t.Fatalf("matrix %s shipped %d cells, want 16", body, len(cells))
		}
	})
}

// benchCluster starts a cluster set up as perf's cluster-matrix
// workload is: a coordinator (two tickets in flight per node, a
// one-entry composite cache) over two single-slot workers without a
// data directory that form a peer-cache ring. It returns a function
// that posts a matrix body and waits for its result.
func benchCluster(b *testing.B) func(body string) {
	wts := make([]*httptest.Server, 2)
	urls := make([]string, len(wts))
	for i := range wts {
		wts[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + wts[i].Listener.Addr().String()
	}
	for i, ts := range wts {
		s, err := New(Options{Workers: 1, PeerLookup: NewPeerLookup(urls[i], urls)})
		if err != nil {
			b.Fatal(err)
		}
		ts.Config.Handler = s
		ts.Start()
		b.Cleanup(func() {
			ts.Close()
			s.Shutdown(context.Background())
		})
	}
	c, err := NewCoordinator(CoordinatorOptions{Workers: urls, NodeConcurrency: 2, CacheSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	cts := httptest.NewServer(c)
	client := &http.Client{}
	b.Cleanup(func() {
		client.CloseIdleConnections()
		cts.Close()
		c.Shutdown(context.Background())
	})
	return func(body string) {
		resp, err := client.Post(cts.URL+"/v1/matrix?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var jr rawResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || jr.Status != "done" {
			b.Fatalf("matrix %s: status %q (%s), decode error %v", body, jr.Status, jr.Error, err)
		}
	}
}

// BenchmarkCoordinatorMatrixCold times a cold test-scale matrix through
// the cluster: every iteration posts a matrix with a seed no earlier
// iteration used, so all 16 cells miss every cache.
func BenchmarkCoordinatorMatrixCold(b *testing.B) {
	post := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(fmt.Sprintf(`{"seed":%d,"place_effort":3}`, 1000+i))
	}
}
