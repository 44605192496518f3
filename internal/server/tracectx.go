package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Distributed trace context. The coordinator mints one trace ID per
// client-visible job and stamps every ticket it ships with it; workers
// thread the ID into their per-job obs.Tracer. GET /v1/jobs/{id}/trace
// on the coordinator then re-assembles the scattered execution into
// one Chrome trace-event timeline: the coordinator's own control spans
// (job, merge, steal, reshard) on one process row, and each worker
// node's tickets — with the per-stage fragments fetched back from the
// worker — on a process row of its own.

// TraceHeader carries the trace context on every coordinator->worker
// hop: "<trace_id>" or "<trace_id>:<parent_span>".
const TraceHeader = "X-Vpga-Trace"

// RequestIDHeader correlates client retries across the fleet: handlers
// echo an incoming X-Request-ID (or mint one) on the response and in
// error envelopes.
const RequestIDHeader = "X-Request-ID"

// newTraceID mints a 16-hex-digit random ID (also used for request
// IDs). crypto/rand never fails on supported platforms; if it ever
// does, a time-derived fallback keeps IDs unique enough to correlate.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// parseTraceHeader splits the header into (trace ID, parent span).
func parseTraceHeader(r *http.Request) (id, parent string) {
	v := r.Header.Get(TraceHeader)
	if v == "" {
		return "", ""
	}
	if i := strings.IndexByte(v, ':'); i >= 0 {
		return v[:i], v[i+1:]
	}
	return v, ""
}

// ensureRequestID echoes the request's X-Request-ID on the response,
// minting one when the client sent none, and returns it. Runs before
// mux dispatch so every handler — including error paths — sees the
// header already set on the ResponseWriter.
func ensureRequestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = newTraceID()
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// responseRequestID reads back the ID ensureRequestID stamped, so
// writeError can echo it without threading it through every handler.
func responseRequestID(w http.ResponseWriter) string {
	return w.Header().Get(RequestIDHeader)
}

// ---------------------------------------------------------------------------
// Coordinator-side trace recording.

// ctrlSpan is one coordinator control span (job, merge).
type ctrlSpan struct {
	name       string
	start, end time.Duration
	args       map[string]any
}

// ctrlInstant is one coordinator instant event (steal, reshard,
// node down/up).
type ctrlInstant struct {
	name string
	at   time.Duration
	args map[string]any
}

// ticketRecord is the coordinator's view of one resolved ticket: which
// node ran it, over what window of the job timeline, and the worker
// job ID its trace fragment lives under ("" for peer-cache hits and
// failures — no fragment to fetch).
type ticketRecord struct {
	name      string
	node      string
	workerJob string
	start     time.Duration
	end       time.Duration
	cached    bool
	stolen    bool
	attempts  int
	err       string
}

// jobTrace records a coordinator job's distributed execution. Nil is
// valid and records nothing (mirroring the obs package's nil-tolerant
// tracer), so untraced paths stay free.
type jobTrace struct {
	traceID string
	epoch   time.Time

	mu       sync.Mutex
	spans    []ctrlSpan
	instants []ctrlInstant
	tickets  []ticketRecord
}

func newJobTrace(traceID string) *jobTrace {
	return &jobTrace{traceID: traceID, epoch: time.Now()}
}

func (t *jobTrace) since() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// span opens a named control span; the returned closure ends it.
func (t *jobTrace) span(name string, args map[string]any) func() {
	if t == nil {
		return func() {}
	}
	start := t.since()
	return func() {
		t.mu.Lock()
		t.spans = append(t.spans, ctrlSpan{name: name, start: start, end: t.since(), args: args})
		t.mu.Unlock()
	}
}

// instant records a point event on the control row.
func (t *jobTrace) instant(name string, args map[string]any) {
	if t == nil {
		return
	}
	at := t.since()
	t.mu.Lock()
	t.instants = append(t.instants, ctrlInstant{name: name, at: at, args: args})
	t.mu.Unlock()
}

// ticket records one resolved ticket.
func (t *jobTrace) ticket(rec ticketRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tickets = append(t.tickets, rec)
	t.mu.Unlock()
}

// snapshot copies the trace under the lock.
func (t *jobTrace) snapshot() (spans []ctrlSpan, instants []ctrlInstant, tickets []ticketRecord) {
	if t == nil {
		return nil, nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]ctrlSpan(nil), t.spans...),
		append([]ctrlInstant(nil), t.instants...),
		append([]ticketRecord(nil), t.tickets...)
}

// ---------------------------------------------------------------------------
// Merged Chrome trace assembly.

// traceEvent mirrors the Chrome trace-event JSON entry the obs package
// emits, re-declared here because merging happens over the wire: the
// coordinator decodes worker fragments from JSON, it never holds their
// tracers.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func durUS(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}

// assignLanes packs a node's tickets onto the fewest rows: tickets are
// sorted by start and each takes the lowest lane whose previous
// occupant already ended (interval partitioning). Sequential execution
// collapses to one row per node; concurrency fans out exactly as wide
// as it ran. Returns the per-ticket lane, parallel to the input.
func assignLanes(tickets []ticketRecord) []int {
	order := make([]int, len(tickets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tickets[order[a]].start < tickets[order[b]].start
	})
	lanes := make([]int, len(tickets))
	var laneEnd []time.Duration
	for _, i := range order {
		t := tickets[i]
		lane := -1
		for l, end := range laneEnd {
			if end <= t.start {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = t.end
		lanes[i] = lane
	}
	return lanes
}

// mergedTrace assembles the job's cluster-wide Chrome trace: pid 0 is
// the coordinator (control spans and instants on tid 0), pid i+1 is
// worker node order[i] with its tickets packed onto lanes and — for
// tickets whose node still answers — the worker's per-stage trace
// fragment nested inside the ticket span, timestamps shifted from the
// worker job's epoch onto the coordinator job's timeline. A dead
// node's fragments are simply absent: its ticket spans (recorded
// coordinator-side) still show what it ran before dying.
func (c *Coordinator) mergedTrace(ctx context.Context, j *job) []traceEvent {
	spans, instants, tickets := j.trace.snapshot()
	traceID := j.traceID

	var events []traceEvent
	events = append(events, traceEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "coordinator", "trace_id": traceID},
	})
	events = append(events, traceEvent{
		Name: "thread_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "control"},
	})

	// Stable node -> pid mapping from configuration order; only nodes
	// that actually ran (or cached) a ticket get a process row.
	nodePid := map[string]int{}
	used := map[string]bool{}
	for _, t := range tickets {
		used[t.node] = true
	}
	for i, base := range c.order {
		if !used[base] {
			continue
		}
		pid := i + 1
		nodePid[base] = pid
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": "worker " + base, "trace_id": traceID},
		})
	}

	for _, s := range spans {
		events = append(events, traceEvent{
			Name: s.name, Cat: "coordinator", Ph: "X",
			Ts: durUS(s.start), Dur: durUS(s.end - s.start), Pid: 0, Tid: 0,
			Args: s.args,
		})
	}
	for _, in := range instants {
		events = append(events, traceEvent{
			Name: in.name, Cat: "coordinator", Ph: "i",
			Ts: durUS(in.at), Pid: 0, Tid: 0, S: "p",
			Args: in.args,
		})
	}

	// Group tickets per node, pack lanes, emit ticket spans and fetch
	// fragments.
	byNode := map[string][]ticketRecord{}
	for _, t := range tickets {
		byNode[t.node] = append(byNode[t.node], t)
	}
	for node, recs := range byNode {
		pid, ok := nodePid[node]
		if !ok {
			continue // node not in configuration (cannot happen in practice)
		}
		lanes := assignLanes(recs)
		maxLane := 0
		for _, l := range lanes {
			if l > maxLane {
				maxLane = l
			}
		}
		for l := 0; l <= maxLane; l++ {
			events = append(events, traceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: l,
				Args: map[string]any{"name": fmt.Sprintf("lane %d", l)},
			})
		}
		n := c.nodes[node]
		for i, rec := range recs {
			args := map[string]any{"trace_id": traceID}
			if rec.workerJob != "" {
				args["worker_job"] = rec.workerJob
			}
			if rec.cached {
				args["cached"] = true
			}
			if rec.stolen {
				args["stolen"] = true
			}
			if rec.attempts > 0 {
				args["attempts"] = rec.attempts
			}
			if rec.err != "" {
				args["error"] = rec.err
			}
			events = append(events, traceEvent{
				Name: rec.name, Cat: "ticket", Ph: "X",
				Ts: durUS(rec.start), Dur: durUS(rec.end - rec.start),
				Pid: pid, Tid: lanes[i], Args: args,
			})
			if rec.workerJob == "" || n == nil || n.down.Load() {
				continue
			}
			frag, ok := n.traceFragment(ctx, rec.workerJob)
			if !ok {
				continue
			}
			// The fragment's epoch is the worker job's creation — within
			// transit latency of the ticket's dispatch — so shifting by the
			// ticket's start lands every fragment span inside its ticket.
			for _, fe := range frag {
				if fe.Ph == "M" {
					continue // fragment row metadata; lanes replace it
				}
				fe.Pid = pid
				fe.Tid = lanes[i]
				fe.Ts += durUS(rec.start)
				if fe.Args == nil {
					fe.Args = map[string]any{}
				}
				fe.Args["ticket"] = rec.name
				events = append(events, fe)
			}
		}
	}

	sort.SliceStable(events, func(i, j int) bool {
		if (events[i].Ph == "M") != (events[j].Ph == "M") {
			return events[i].Ph == "M"
		}
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		return events[i].Pid < events[j].Pid
	})
	return events
}
