package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"vpga/internal/obs"
)

// getTrace fetches and decodes a merged (or worker-local) Chrome
// trace-event array.
func getTrace(t *testing.T, url string) []obs.ChromeEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var events []obs.ChromeEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	return events
}

// TestTraceHeaderRoundTrip: a worker submission carrying X-Vpga-Trace
// adopts the coordinator's trace ID — echoed in the job envelope and
// stamped on the job's Chrome trace fragment — and a cache hit under a
// new trace echoes the new trace, not the one that computed it.
func TestTraceHeaderRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	post := func(trace string) jobResponse {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs?wait=1",
			jsonBody(`{"design":"alu","seed":3,"place_effort":2}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TraceHeader, trace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var jr jobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		return jr
	}

	jr := post("deadbeef01234567:alu/lut-plb/flow b")
	if jr.Status != "done" || jr.TraceID != "deadbeef01234567" {
		t.Fatalf("traced run: status %q trace_id %q", jr.Status, jr.TraceID)
	}
	events := getTrace(t, ts.URL+"/v1/runs/"+jr.ID+"/trace")
	var stamped bool
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "process_name" {
			if ev.Args["trace_id"] != "deadbeef01234567" {
				t.Fatalf("fragment process args = %v", ev.Args)
			}
			stamped = true
		}
	}
	if !stamped {
		t.Fatal("fragment has no process_name metadata")
	}

	// The same request under a different trace is a cache hit that
	// belongs to the new trace.
	again := post("feedface89abcdef")
	if !again.Cached || again.TraceID != "feedface89abcdef" {
		t.Fatalf("cached resubmission: cached=%v trace_id=%q", again.Cached, again.TraceID)
	}
}

// TestRequestIDEchoAndMint: every response carries X-Request-ID —
// echoed when the client sent one, minted otherwise — and error
// envelopes embed it for log correlation.
func TestRequestIDEchoAndMint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/nosuch", nil)
	req.Header.Set(RequestIDHeader, "req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "req-42" {
		t.Fatalf("echoed request id = %q, want req-42", got)
	}
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Status != "rejected" || jr.RequestID != "req-42" {
		t.Fatalf("error envelope = %+v, want request_id req-42", jr)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if minted := resp2.Header.Get(RequestIDHeader); len(minted) != 16 {
		t.Fatalf("minted request id = %q, want 16 hex chars", minted)
	}
}

// TestClusterStatusEndpoint: GET /v1/cluster/status reports every
// node with its dispatch counters after work has flowed.
func TestClusterStatusEndpoint(t *testing.T) {
	workers := newWorkerFleet(t, 2)
	_, ts := newTestCoordinator(t, CoordinatorOptions{Workers: workers})
	if _, jr := postJSONURL(t, ts.URL+"/v1/runs?wait=1", `{"design":"alu","seed":3,"place_effort":2}`); jr.Status != "done" {
		t.Fatalf("run through coordinator: %+v", jr)
	}

	resp, err := http.Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Role    string            `json:"role"`
		NodesUp int               `json:"nodes_up"`
		Nodes   []clusterNodeStat `json:"nodes"`
		Cluster struct {
			Tickets int64 `json:"tickets"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "coordinator" || len(st.Nodes) != 2 || st.NodesUp != 2 {
		t.Fatalf("cluster status = %+v", st)
	}
	if st.Cluster.Tickets < 1 {
		t.Fatal("no tickets recorded in cluster status")
	}
	var dispatched int64
	for _, n := range st.Nodes {
		dispatched += n.Dispatched
		if n.InFlightTickets != 0 {
			t.Fatalf("idle cluster reports in-flight tickets: %+v", n)
		}
	}
	if dispatched < 1 {
		t.Fatal("no node reports a dispatched ticket")
	}
}

// TestMergedClusterTrace is the tentpole acceptance: a matrix through
// a 2-worker cluster yields ONE merged Chrome trace — coordinator
// scheduling spans on pid 0, each worker's tickets and per-stage
// fragments on its own process row — under a single trace ID.
func TestMergedClusterTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	workers := newWorkerFleet(t, 2)
	_, ts := newTestCoordinator(t, CoordinatorOptions{Workers: workers})
	code, jr := httpJSON(t, "POST", ts.URL+"/v1/matrix?wait=1", `{"seed":5,"place_effort":2,"parallel":2}`)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("matrix: status %d job %q (%s)", code, jr.Status, jr.Error)
	}

	var env jobResponse
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env.TraceID == "" {
		t.Fatal("coordinator job has no trace_id")
	}

	events := getTrace(t, ts.URL+"/v1/jobs/"+jr.ID+"/trace")
	traceIDs := map[any]bool{}
	coordSpans := map[string]bool{}
	ticketPids := map[int]bool{}
	stagePids := map[int]bool{}
	for _, ev := range events {
		if id, ok := ev.Args["trace_id"]; ok {
			traceIDs[id] = true
		}
		switch {
		case ev.Cat == "coordinator" && ev.Ph == "X":
			if ev.Pid != 0 {
				t.Fatalf("coordinator span %q on pid %d", ev.Name, ev.Pid)
			}
			coordSpans[ev.Name] = true
		case ev.Cat == "ticket":
			if ev.Pid == 0 {
				t.Fatalf("ticket span %q on the coordinator row", ev.Name)
			}
			ticketPids[ev.Pid] = true
		case ev.Cat == "stage":
			stagePids[ev.Pid] = true
		}
	}
	if len(traceIDs) != 1 || !traceIDs[env.TraceID] {
		t.Fatalf("trace IDs in merged trace = %v, want exactly {%q}", traceIDs, env.TraceID)
	}
	if !coordSpans["job matrix"] || !coordSpans["merge"] {
		t.Fatalf("coordinator spans = %v, want job matrix + merge", coordSpans)
	}
	if len(ticketPids) < 2 {
		t.Fatalf("ticket spans on %d worker rows, want both workers", len(ticketPids))
	}
	if len(stagePids) < 2 {
		t.Fatalf("stage fragments from %d workers, want both", len(stagePids))
	}
	for pid := range stagePids {
		if !ticketPids[pid] {
			t.Fatalf("stage fragment on pid %d has no ticket span row", pid)
		}
	}
}

// postJSONURL is postJSON against a raw URL (coordinator tests hold
// the httptest server, not always in scope).
func postJSONURL(t *testing.T, url, body string) (*http.Response, jobResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", jsonBody(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return resp, jr
}

func jsonBody(s string) io.Reader { return strings.NewReader(s) }
