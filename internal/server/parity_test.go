package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// The single node's envelope is the contract: a composite job merged
// from tickets by a coordinator fails, ledgers and serves exactly as
// the same job run whole on one daemon.

// TestFailureEnvelopeParity posts a failing matrix and a failing
// granularity sweep to a single node and to a coordinator and
// compares status, error, stage and error_kind.
func TestFailureEnvelopeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	_, single := newTestServer(t, Options{Workers: 2})
	_, coord := newTestCoordinator(t, CoordinatorOptions{Workers: newWorkerFleet(t, 2)})
	for _, job := range []struct{ path, body, stage string }{
		{"/v1/matrix", `{"seed":1,"place_effort":1,"defect_rate":0.3,"defect_seed":3,"repair_budget":-1}`, "repair"},
		{"/v1/sweeps/granularity", `{"design":"firewire","archs":[{"kind":"granular"},` +
			`{"kind":"custom","name":"no-ff","mux":2,"xoa":1,"nand":1,"ff":0}]}`, "pack"},
	} {
		_, want := httpJSON(t, "POST", single.URL+job.path+"?wait=1", job.body)
		if want.Status != "failed" || want.Stage != job.stage {
			t.Fatalf("%s on a single node: status %q stage %q (%s), want failed at %q",
				job.path, want.Status, want.Stage, want.Error, job.stage)
		}
		_, got := httpJSON(t, "POST", coord.URL+job.path+"?wait=1", job.body)
		if got.Status != want.Status || got.Error != want.Error || got.Stage != want.Stage || got.ErrorKind != want.ErrorKind {
			t.Errorf("%s envelopes differ:\nsingle      %q %q stage %q kind %q\ncoordinator %q %q stage %q kind %q",
				job.path, want.Status, want.Error, want.Stage, want.ErrorKind,
				got.Status, got.Error, got.Stage, got.ErrorKind)
		}
	}
}

// TestContinueOnErrorMatrixByteIdentical: a continue_on_error matrix
// with failing cells — on a fabric where some cells fail, and on one
// where every pin fails and its dependents are skipped — serves the
// same bytes from a single node and through a coordinator.
func TestContinueOnErrorMatrixByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	_, single := newTestServer(t, Options{Workers: 2})
	_, coord := newTestCoordinator(t, CoordinatorOptions{Workers: newWorkerFleet(t, 2)})
	for _, tc := range []struct {
		rate    string
		entries int
	}{{"0.3", 2}, {"0.9", 16}} {
		body := fmt.Sprintf(`{"seed":1,"place_effort":1,"continue_on_error":true,`+
			`"defect_rate":%s,"defect_seed":3,"repair_budget":-1}`, tc.rate)
		code, want := httpJSON(t, "POST", single.URL+"/v1/matrix?wait=1", body)
		if code != http.StatusOK || want.Status != "done" {
			t.Fatalf("rate %s on a single node: status %d job %q (%s)", tc.rate, code, want.Status, want.Error)
		}
		var res MatrixResult
		if err := json.Unmarshal(want.Result, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) != tc.entries {
			t.Fatalf("rate %s: %d ledger entries, want %d: %q", tc.rate, len(res.Errors), tc.entries, res.Errors)
		}
		code, got := httpJSON(t, "POST", coord.URL+"/v1/matrix?wait=1", body)
		if code != http.StatusOK || got.Status != "done" {
			t.Fatalf("rate %s through a coordinator: status %d job %q (%s)", tc.rate, code, got.Status, got.Error)
		}
		if !bytes.Equal(want.Result, got.Result) {
			t.Errorf("rate %s: coordinator matrix is not byte-identical to the single node's:\nsingle %s\nmerged %s",
				tc.rate, want.Result, got.Result)
		}
	}
}

// TestValidationParity: a worker, a coordinator and a coordinator batch
// refuse the same bodies with the same error, and the coordinator
// dispatches no ticket for any of them.
func TestValidationParity(t *testing.T) {
	_, worker := newTestServer(t, Options{Workers: 1})
	c, coord := newTestCoordinator(t, CoordinatorOptions{Workers: []string{worker.URL}})
	for _, tc := range []struct{ kind, path, body string }{
		{"sweep/routing", "/v1/sweeps/routing", `{"design":"alu","capacities":[0]}`},
		{"sweep/routing", "/v1/sweeps/routing", `{"design":"alu","capacities":[4097]}`},
		{"sweep/routing", "/v1/sweeps/routing", `{"design":"alu","arch":{"kind":"nope"}}`},
		{"run", "/v1/runs", `{"design":"alu","sede":3}`},
		{"matrix", "/v1/matrix", `{"place_effort":-1}`},
	} {
		wCode, w := httpJSON(t, "POST", worker.URL+tc.path, tc.body)
		cCode, co := httpJSON(t, "POST", coord.URL+tc.path, tc.body)
		bCode, b := httpJSON(t, "POST", coord.URL+"/v1/batch",
			fmt.Sprintf(`{"jobs":[{"kind":%q,"request":%s}]}`, tc.kind, tc.body))
		if wCode != http.StatusBadRequest || cCode != http.StatusBadRequest || bCode != http.StatusBadRequest {
			t.Errorf("%s %s: worker %d, coordinator %d, batch %d; want 400 from all three",
				tc.path, tc.body, wCode, cCode, bCode)
		}
		if w.Error == "" || co.Error != w.Error || b.Error != "batch job 0: "+w.Error {
			t.Errorf("%s %s: errors differ:\nworker      %q\ncoordinator %q\nbatch       %q",
				tc.path, tc.body, w.Error, co.Error, b.Error)
		}
	}
	if got := c.tickets.Load(); got != 0 {
		t.Fatalf("refused submissions dispatched %d tickets", got)
	}
}
