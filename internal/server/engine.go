package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vpga/internal/artifact"
	"vpga/internal/core"
	"vpga/internal/faultinject"
	"vpga/internal/obs"
	"vpga/internal/qor"
)

// The job engine is the one lifecycle both daemons run:
//
//	parse → cache tiers → in-flight dedupe → accept (journal) → admit → run → terminal
//
// Every submission parses through the kind table (requests.go), so the
// HTTP routes, POST /v1/batch and journal replay refuse exactly the
// same bodies. A request the cache tiers answer — the memory LRU, the
// artifact store, a worker's peer tier — never becomes a job, and an
// identical in-flight request attaches to the job already computing
// it. An accepted job is journaled (fsync) before its acceptance is
// visible, then admitted: a worker queues it in front of its bounded
// flow pool (a full queue answers 429), while a coordinator starts it
// at once, because its ticket scheduler is the queue that orders work
// by priority and tenant. The run step — timeout, injected-fault
// retry, ledger, cache put, terminal entry — is shared too, so the two
// daemons differ only in their executor.

// executor is how a daemon's accepted jobs run.
type executor interface {
	// caches reports whether the daemon keeps results of r's kind in
	// its own cache tiers.
	caches(r jobRequest) bool
	// prepare readies a job that will run: a fresh one after every
	// cache tier missed, or one rebuilt from the journal.
	prepare(j *job)
	// execute runs the job to its result; cached reports that the
	// result came from a cache elsewhere in the cluster.
	execute(ctx context.Context, j *job) (res any, cached bool, err error)
	// writeTrace serves GET /v1/runs/{id}/trace: the job's Chrome
	// trace-event JSON (chrome://tracing, ui.perfetto.dev).
	writeTrace(w http.ResponseWriter, r *http.Request, j *job)
	// rollup is the daemon's view of the nodes it serves over (a
	// coordinator's fleet): its fields join /healthz, where up == false
	// answers 503 "degraded", and writeRollup's series join /metrics.
	rollup() (fields map[string]any, up bool)
	writeRollup(w io.Writer)
}

// job is one accepted unit of work plus the bookkeeping the status,
// trace and event endpoints serve.
type job struct {
	jobSpec
	id   string
	body []byte // canonical request JSON, journaled on acceptance
	// priority and tenant order the job's tickets on a coordinator
	// (POST /v1/batch); a worker runs its queue FIFO.
	priority int
	tenant   string
	// traceID is the distributed trace the job belongs to: echoed from
	// the X-Vpga-Trace header a submission carried, or minted by the
	// coordinator per client job ("" = untraced). It is journaled with
	// the job, so a replayed job keeps it.
	traceID string
	tracer  *obs.Tracer // stage spans and the SSE event stream
	trace   *jobTrace   // the coordinator's dispatch record (nil on a worker)
	// stageKeys is a worker run's per-stage key chain: the content
	// addresses of the stage artifacts the run reads and writes.
	stageKeys []core.StageKey
	created   time.Time
	replayed  bool          // rebuilt from the journal after a restart
	done      chan struct{} // closed when the job reaches done/failed

	mu      sync.Mutex
	status  string // "queued", "running", "done", "failed"
	result  any
	cached  bool
	errMsg  string
	stage   string // failing flow stage, when known
	errKind string // machine-readable class: "timeout", "cancelled", ""
}

func (j *job) setStatus(s string) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

// complete records the outcome and wakes waiters.
func (j *job) complete(result any, cached bool, err error) {
	j.mu.Lock()
	if err != nil {
		j.status = "failed"
		j.errMsg, j.stage, j.errKind = failure(err)
	} else {
		j.status, j.result, j.cached = "done", result, cached
	}
	j.mu.Unlock()
	close(j.done)
}

// response snapshots the job as its API representation.
func (j *job) response() jobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobResponse{
		ID: j.id, Kind: j.kind.name, Status: j.status, Cached: j.cached, Key: j.key,
		Result: j.result, Error: j.errMsg, Stage: j.stage, ErrorKind: j.errKind,
		StageKeys: j.stageKeys, TraceID: j.traceID,
	}
}

// jobResponse is the envelope of every job-shaped endpoint. Result is
// kind-specific: *core.Report for runs, MatrixResult for matrices,
// []core.SweepPoint / []core.RoutingPoint for sweeps.
type jobResponse struct {
	ID     string `json:"id,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Key    string `json:"key,omitempty"`
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	Stage  string `json:"stage,omitempty"`
	// ErrorKind is the machine-readable failure class ("timeout",
	// "cancelled") a coordinator keys off — a timeout that happened on a
	// remote worker must still count as a timeout when the envelope
	// comes back over HTTP, without parsing the error string.
	ErrorKind string `json:"error_kind,omitempty"`
	// StageKeys is the run's per-stage key chain (worker run jobs
	// only): the content addresses of the stage-granular build-cache
	// artifacts the run reads and writes, in pipeline order.
	StageKeys []core.StageKey `json:"stage_keys,omitempty"`
	// TraceID is the distributed trace the job belongs to — minted by
	// the coordinator per client job, or echoed from the X-Vpga-Trace
	// header a submission carried ("" = untraced).
	TraceID string `json:"trace_id,omitempty"`
	// RequestID echoes the request's X-Request-ID on error envelopes so
	// a rejected submission is correlatable in logs without headers.
	RequestID string `json:"request_id,omitempty"`
}

// engine is the shared job lifecycle; Server and Coordinator embed it.
type engine struct {
	opts   Options
	prefix string // job ID prefix: "j" on a worker, "c" on a coordinator
	exec   executor
	mux    *http.ServeMux
	cache  *lru
	queue  chan *job // nil: every accepted job starts at once
	log    *slog.Logger

	// Crash-safety layer (nil without Options.DataDir): the job journal,
	// the artifact store holding completed results, and the
	// stage-granular build cache over that store — every flow run a
	// worker executes restores the deepest cached prefix of its
	// stage-key chain and persists the stages it computes. A worker
	// without a store runs against a bounded in-memory tier instead.
	journal *journal
	store   *artifact.Store
	stages  *core.StageCache

	mu        sync.Mutex
	jobs      map[string]*job
	inflight  map[string]*job // accepted, unfinished jobs by content address
	doneOrder []string        // finished jobs, oldest first, for eviction
	draining  bool

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	nextID  atomic.Int64
	start   time.Time

	// Counters (atomic; surfaced by /healthz and /metrics).
	reqTotal, cacheHits, cacheMisses atomic.Int64
	rejected, completed, failed      atomic.Int64
	timeouts, running, replayed      atomic.Int64
	ledgerRecords, ledgerErrors      atomic.Int64
	ioRetries, ioRecoveries          atomic.Int64
	peerHits, peerMisses, peerServed atomic.Int64

	// Latency histograms (zero-dependency log buckets; see histogram.go).
	jobDur, queueWait *histogram
	stageDur          *histogramVec
}

// newEngine opens the daemon's durable state under Options.DataDir and
// registers the routes both daemons serve. opts.Workers sizes a flow
// pool behind a queue of opts.QueueDepth; zero starts every accepted
// job at once. The caller finishes its own setup, then calls launchAll
// with the returned journal entries.
func newEngine(opts Options, prefix string, exec executor) (*engine, []journalEntry, error) {
	opts = opts.withDefaults()
	var (
		store   *artifact.Store
		jn      *journal
		pending []journalEntry
		err     error
	)
	if opts.DataDir != "" {
		if store, err = artifact.Open(filepath.Join(opts.DataDir, "artifacts")); err != nil {
			return nil, nil, err
		}
		if jn, pending, err = openJournal(filepath.Join(opts.DataDir, "journal.wal")); err != nil {
			return nil, nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &engine{
		opts: opts, prefix: prefix, exec: exec,
		mux: http.NewServeMux(), cache: newLRU(opts.CacheSize), log: opts.Logger,
		journal: jn, store: store, stages: core.NewStageCache(store),
		jobs: make(map[string]*job), inflight: make(map[string]*job),
		baseCtx: ctx, cancel: cancel, start: time.Now(),
		jobDur: &histogram{}, queueWait: &histogram{}, stageDur: newHistogramVec("stage"),
	}
	if opts.Workers > 0 {
		e.queue = make(chan *job, opts.QueueDepth)
	}
	if opts.Node != "" {
		e.log = e.log.With("node", opts.Node)
	}
	for _, k := range kinds {
		e.mux.HandleFunc("POST "+k.path, e.handleSubmit(k))
	}
	// /v1/jobs/{id} aliases /v1/runs/{id}, so tooling polls either
	// daemon role with one URL scheme.
	for _, route := range []string{"GET /v1/runs/{id}", "GET /v1/jobs/{id}"} {
		e.jobRoute(route, func(w http.ResponseWriter, _ *http.Request, j *job) {
			writeJSON(w, http.StatusOK, j.response())
		})
		e.jobRoute(route+"/trace", exec.writeTrace)
	}
	e.jobRoute("GET /v1/runs/{id}/events", handleEvents)
	e.mux.HandleFunc("GET /healthz", e.handleHealthz)
	e.mux.HandleFunc("GET /metrics", e.handleMetrics)
	return e, pending, nil
}

// launchAll starts the flow pool and replays the journal: jobs with a
// terminal entry are history (their results live in the artifact
// store), jobs without one are rebuilt from their journaled bodies and
// run again under their original IDs.
func (e *engine) launchAll(pending []journalEntry) {
	for i := 0; i < e.opts.Workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for j := range e.queue {
				e.run(j)
			}
		}()
	}
	if e.journal != nil {
		e.replay(pending)
	}
}

// replay reconstructs job state from the journal entries, then compacts
// the journal down to the still-incomplete accepted entries.
func (e *engine) replay(entries []journalEntry) {
	type acc struct {
		entry    journalEntry
		terminal bool
	}
	var (
		order []string
		byID  = map[string]*acc{}
		maxID int64
	)
	for _, en := range entries {
		if n := jobIDNum(en.ID); n > maxID {
			maxID = n
		}
		switch en.State {
		case "accepted":
			if byID[en.ID] == nil {
				byID[en.ID] = &acc{entry: en}
				order = append(order, en.ID)
			}
		case "done", "failed":
			if a := byID[en.ID]; a != nil {
				a.terminal = true
			}
		}
	}
	// Resume the ID sequence past every journaled job, so replayed IDs
	// never collide with fresh submissions.
	if maxID > e.nextID.Load() {
		e.nextID.Store(maxID)
	}
	var (
		jobs []*job
		keep []journalEntry
	)
	for _, id := range order {
		a := byID[id]
		if a.terminal {
			continue
		}
		sp, err := parseSpec(a.entry.Kind, a.entry.Body)
		if err != nil {
			// The body no longer validates (schema drift); drop the job —
			// the client's resubmission will be validated afresh.
			continue
		}
		j := e.newJob(sp, a.entry.TraceID, a.entry.Priority, a.entry.Tenant)
		j.id, j.replayed = id, true
		jobs = append(jobs, j)
		en := a.entry
		en.Seq = int64(len(keep) + 1)
		keep = append(keep, en)
	}
	e.journal.compact(keep)
	if len(jobs) == 0 {
		return
	}
	// Register every replayed job before the (possibly slow,
	// backpressured) re-enqueue: a client polling GET /v1/runs/{id} or
	// following the SSE stream across the restart must find the job
	// immediately, not 404 until its queue send happens to land.
	e.mu.Lock()
	for _, j := range jobs {
		e.jobs[j.id] = j
		e.inflight[j.key] = j
		if e.queue == nil {
			e.replayed.Add(1)
			e.launch(j)
		}
	}
	e.mu.Unlock()
	if e.queue != nil {
		go e.enqueueReplay(jobs)
	}
}

// jobIDNum extracts the numeric part of a "j%06d" or "c%06d" job ID (0
// when the ID is not of that shape).
func jobIDNum(id string) int64 {
	if len(id) < 2 {
		return 0
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// enqueueReplay feeds replayed jobs into the queue with blocking
// backpressure (a restart may hold more incomplete jobs than the queue
// bounds). Sends happen under the engine mutex with draining checked,
// so a concurrent Shutdown — which closes the queue under the same
// mutex — can never race a send onto a closed channel.
func (e *engine) enqueueReplay(jobs []*job) {
	for _, j := range jobs {
		for {
			e.mu.Lock()
			if e.draining {
				e.mu.Unlock()
				return
			}
			var sent bool
			select {
			case e.queue <- j:
				sent = true
			default:
			}
			e.mu.Unlock()
			if sent {
				e.replayed.Add(1)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// retryIO wraps transient I/O (journal appends, artifact writes,
// ledger appends) in a bounded jittered-backoff retry. Injected faults
// are counter-based, so the re-attempt re-arms the fault point and
// usually clears; a persistent real failure still surfaces after the
// attempts are spent.
func (e *engine) retryIO(op func() error) error {
	retried := false
	err := faultinject.Retry(3, 2*time.Millisecond, op, func(int, error) {
		retried = true
		e.ioRetries.Add(1)
	})
	if err == nil && retried {
		e.ioRecoveries.Add(1)
	}
	return err
}

// ServeHTTP implements http.Handler. The request ID is echoed (or
// minted) on the response before mux dispatch, so every handler —
// error paths included — already sees it set.
func (e *engine) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.reqTotal.Add(1)
	reqID := ensureRequestID(w, r)
	e.log.Debug("request", "method", r.Method, "path", r.URL.Path, "request_id", reqID)
	e.mux.ServeHTTP(w, r)
}

// Shutdown drains the daemon: no new submissions are accepted (503),
// accepted jobs finish, then the runners exit. If ctx expires first,
// running jobs are cancelled at their next iteration boundary and
// Shutdown still waits for them before returning ctx's error. A job
// the drain cancels gets no terminal journal entry, so the next start
// on the same data directory runs it again — exactly as after a
// SIGKILL. Shutdown is idempotent.
func (e *engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		if e.queue != nil {
			close(e.queue)
		}
	}
	e.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	e.cancel()
	<-drained
	e.journal.close()
	return err
}

// newJob allocates a job record for a parsed request.
func (e *engine) newJob(sp jobSpec, traceID string, priority int, tenant string) *job {
	j := &job{
		jobSpec: sp, id: fmt.Sprintf("%s%06d", e.prefix, e.nextID.Add(1)),
		priority: priority, tenant: tenant, traceID: traceID,
		tracer: obs.NewTracer(), created: time.Now(),
		done: make(chan struct{}), status: "queued",
	}
	// A body that fails to encode leaves the job unjournaled: lost to a
	// crash, never wrong.
	j.body, _ = json.Marshal(sp.req)
	e.exec.prepare(j)
	if j.traceID != "" {
		j.tracer.SetTraceID(j.traceID)
	}
	return j
}

// admit resolves a parsed request: an answer from the cache tiers
// (hit), the in-flight job computing the same content address, or a
// newly accepted job. A refusal comes back as an HTTP status and error.
func (e *engine) admit(ctx context.Context, sp jobSpec, traceID string, priority int, tenant string) (hit *jobResponse, j *job, status int, err error) {
	if e.exec.caches(sp.req) {
		if v, ok := e.lookup(ctx, sp); ok {
			if rep, isReport := v.(*core.Report); isReport {
				v = rep.Clone() // never hand the cached report itself to encoders
			}
			return &jobResponse{
				Kind: sp.kind.name, Status: "done", Cached: true, Key: sp.key, Result: v, TraceID: traceID,
			}, nil, 0, nil
		}
		e.cacheMisses.Add(1)
	}
	j, status, err = e.submit(e.newJob(sp, traceID, priority, tenant))
	return nil, j, status, err
}

// lookup consults the cache tiers in order: the memory LRU, the
// persistent artifact store, then the peer tier — another node may
// have computed this exact request already. A store or peer hit is
// promoted into the LRU only, so a peer result is never double-stored;
// a payload that fails to decode is a miss.
func (e *engine) lookup(ctx context.Context, sp jobSpec) (any, bool) {
	if v, ok := e.cache.get(sp.key); ok {
		e.cacheHits.Add(1)
		return v, true
	}
	if e.store != nil {
		if raw, ok := e.store.Get(sp.key); ok {
			if v, err := sp.kind.decode(raw); err == nil {
				e.cacheHits.Add(1)
				e.cache.put(sp.key, v)
				return v, true
			}
		}
	}
	if e.opts.PeerLookup != nil {
		if raw, ok := e.opts.PeerLookup(ctx, sp.kind.name, sp.key); ok {
			if v, err := sp.kind.decode(raw); err == nil {
				e.peerHits.Add(1)
				e.cache.put(sp.key, v)
				return v, true
			}
		}
		e.peerMisses.Add(1)
	}
	return nil, false
}

// submit accepts a job with explicit backpressure: a full queue is a
// 429, a draining daemon a 503 — submissions never block. An identical
// job already in flight is returned instead. An accepted job is
// journaled (fsync) before the acceptance is visible; a journal failure
// after bounded retry is availability over durability — the job still
// runs, it just would not survive a crash, and the error counter
// records the gap.
func (e *engine) submit(j *job) (*job, int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.inflight[j.key]; cur != nil {
		return cur, 0, nil
	}
	if e.draining {
		return nil, http.StatusServiceUnavailable, errors.New("server is draining")
	}
	// Every send to the queue happens under e.mu, so a slot free here is
	// still free after the journal append. Journaling before the send
	// keeps "accepted" ahead of the runner's "running" entry.
	if e.queue != nil && len(e.queue) == cap(e.queue) {
		e.rejected.Add(1)
		return nil, http.StatusTooManyRequests, fmt.Errorf("queue full (%d pending); retry later", cap(e.queue))
	}
	e.jobs[j.id] = j
	e.inflight[j.key] = j
	if e.journal != nil && j.body != nil {
		en := journalEntry{ID: j.id, State: "accepted", Kind: j.kind.name, Key: j.key, Body: j.body,
			Priority: j.priority, Tenant: j.tenant, TraceID: j.traceID}
		e.retryIO(func() error { return e.journal.append(en, true) })
	}
	e.launch(j)
	e.log.Info("job accepted", "job_id", j.id, "kind", j.kind.name, "label", j.label, "trace_id", j.traceID,
		"tenant", j.tenant, "priority", j.priority)
	return j, 0, nil
}

// launch hands an accepted job to its runner: the queue in front of the
// flow pool, or a goroutine of its own. Callers hold e.mu with draining
// unset.
func (e *engine) launch(j *job) {
	if e.queue != nil {
		e.queue <- j
		return
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.run(j)
	}()
}

// run is the run step every job takes.
func (e *engine) run(j *job) {
	j.setStatus("running")
	e.queueWait.observe(time.Since(j.created).Seconds())
	e.running.Add(1)
	defer e.running.Add(-1)
	if e.opts.testJobStart != nil {
		e.opts.testJobStart(j)
	}
	// A "running" entry is a progress note, not a durability boundary:
	// no fsync, no retry — replay treats accepted-but-not-terminal jobs
	// identically whether or not this landed.
	e.journal.append(journalEntry{ID: j.id, State: "running"}, false)
	ctx := e.baseCtx
	if e.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.JobTimeout)
		defer cancel()
	}
	start := time.Now()
	res, cached, err := e.exec.execute(ctx, j)
	// An injected transient fault (a stage-boundary disk error the
	// harness modeled) is retried end-to-end with jittered backoff:
	// flows are deterministic, so the re-run recomputes the same
	// result, and the counter-based fault usually does not re-fire.
	for attempt := 1; attempt <= 2 && errors.Is(err, faultinject.ErrInjected) && ctx.Err() == nil; attempt++ {
		e.ioRetries.Add(1)
		time.Sleep(time.Duration(attempt) * 2 * time.Millisecond)
		if res, cached, err = e.exec.execute(ctx, j); err == nil {
			e.ioRecoveries.Add(1)
		}
	}
	e.jobDur.observe(time.Since(start).Seconds())
	e.observeStages(j.tracer)
	// The daemon's own drain cancelled this job: it gets no terminal
	// entry, so a restart on the same data directory runs it again.
	interrupted := e.baseCtx.Err() != nil
	if err != nil {
		e.failed.Add(1)
		if isTimeout(err) {
			e.timeouts.Add(1)
		}
	} else {
		e.completed.Add(1)
		if !cached {
			e.appendLedger(j, res)
		}
		// A result carrying failed cells is served but never cached or
		// persisted: its failures may be transient (a timeout, a dead
		// node), and a resubmission must recompute them.
		if !cached && e.exec.caches(j.req) && !hasFailures(res) {
			v := cacheValue(res)
			e.cache.put(j.key, v)
			e.persist(j.key, v)
		}
	}
	if !interrupted {
		e.journalTerminal(j, err)
	}
	dur := time.Since(start).Round(time.Millisecond)
	switch {
	case interrupted:
		e.log.Warn("job interrupted by shutdown; it runs again on restart", "job_id", j.id, "kind", j.kind.name,
			"trace_id", j.traceID, "duration", dur)
	case err != nil:
		e.log.Warn("job failed", "job_id", j.id, "kind", j.kind.name, "trace_id", j.traceID,
			"duration", dur, "error", err)
	default:
		e.log.Info("job done", "job_id", j.id, "kind", j.kind.name, "trace_id", j.traceID, "duration", dur)
	}
	j.complete(res, cached, err)
	e.retire(j)
}

// cacheValue is what the cache holds for a result: a report is stored
// as a metrics-stripped deep clone — wall-clock artifacts are execution
// state, not content, and the cache must never alias a report already
// handed to a response encoder.
func cacheValue(v any) any {
	if rep, ok := v.(*core.Report); ok {
		rep = rep.Clone()
		rep.StripMetrics()
		return rep
	}
	return v
}

// hasFailures reports whether a result carries a failure ledger: a
// continue_on_error matrix whose cells failed.
func hasFailures(v any) bool {
	m, ok := v.(MatrixResult)
	return ok && len(m.Errors) > 0
}

// persist spills a completed result to the artifact store, so a
// restarted daemon serves it without recomputing. Best-effort with
// bounded retry: a result that fails to persist is still served from
// memory, and a post-restart resubmission simply recomputes it.
func (e *engine) persist(key string, v any) {
	if e.store == nil {
		return
	}
	if enc, err := json.Marshal(v); err == nil {
		e.retryIO(func() error { return e.store.Put(key, enc) })
	}
}

// journalTerminal durably records the job's outcome. The fsynced
// terminal entry is what lets the post-restart replay skip the job; if
// the append ultimately fails the job merely replays after a crash —
// recomputing a deterministic flow, never corrupting state.
func (e *engine) journalTerminal(j *job, jobErr error) {
	if e.journal == nil {
		return
	}
	en := journalEntry{ID: j.id, State: "done"}
	if jobErr != nil {
		en.State = "failed"
		en.Error, en.Stage, _ = failure(jobErr)
	}
	e.retryIO(func() error { return e.journal.append(en, true) })
}

// appendLedger appends a computed result's QoR records to the run
// ledger, when both a ledger path and a ledger-shaped kind are present.
// The ledger is observability, not a result: append failures count on
// vpgad_ledger_errors_total and never fail the job.
func (e *engine) appendLedger(j *job, res any) {
	l, ok := j.req.(ledgered)
	if e.opts.LedgerPath == "" || !ok {
		return
	}
	if raw, isRaw := res.(json.RawMessage); isRaw {
		// A forwarded result arrives as the worker rendered it.
		var err error
		if res, err = j.kind.decode(raw); err != nil {
			return
		}
	}
	recs := l.ledger(res, j.key)
	if len(recs) == 0 {
		return
	}
	now := time.Now()
	for i := range recs {
		recs[i].Stamp(now, "")
	}
	// Bounded retry: a failed append truncates back to a clean tail, so
	// re-appending cannot stack partial lines.
	if err := e.retryIO(func() error {
		return qor.Append(e.opts.LedgerPath, recs...)
	}); err != nil {
		e.ledgerErrors.Add(1)
		return
	}
	e.ledgerRecords.Add(int64(len(recs)))
}

// retire enforces the completed-job retention bound: job records —
// status and tracer — beyond Options.JobsKeep are evicted oldest
// first. The result cache keeps serving evicted jobs' results.
func (e *engine) retire(j *job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inflight[j.key] == j {
		delete(e.inflight, j.key)
	}
	e.doneOrder = append(e.doneOrder, j.id)
	for len(e.doneOrder) > e.opts.JobsKeep {
		delete(e.jobs, e.doneOrder[0])
		e.doneOrder = e.doneOrder[1:]
	}
}

// observeStages feeds the job's stage spans into the per-stage
// duration histograms.
func (e *engine) observeStages(tr *obs.Tracer) {
	for _, run := range tr.Runs() {
		for _, span := range run.Spans() {
			e.stageDur.with(span.Stage).observe(span.Dur.Seconds())
		}
	}
}

// remoteError is a failure a worker rendered in its job envelope,
// carried verbatim: message, stage and error kind.
type remoteError struct{ msg, stage, kind string }

func (e *remoteError) Error() string { return e.msg }

// failure distills a job error into the envelope's failure fields —
// the one rule both daemons apply, to a job run locally and to a
// composite merged from tickets: the message, the failing flow stage
// when the error carries a *core.FlowError, and the error kind.
func failure(err error) (msg, stage, kind string) {
	var re *remoteError
	if errors.As(err, &re) {
		return re.msg, re.stage, re.kind
	}
	var fe *core.FlowError
	if errors.As(err, &fe) {
		stage = fe.Stage
	}
	switch {
	case isTimeout(err):
		kind = "timeout"
	case errors.Is(err, context.Canceled) || stage == "cancelled":
		kind = "cancelled"
	}
	return err.Error(), stage, kind
}

// isTimeout reports whether a job failed on its wall-clock budget:
// either the context deadline surfaced directly, the flow supervisor
// already classified the failing stage as "timeout", or a worker did.
func isTimeout(err error) bool {
	var (
		fe *core.FlowError
		re *remoteError
	)
	return errors.Is(err, context.DeadlineExceeded) ||
		errors.As(err, &fe) && fe.Stage == "timeout" ||
		errors.As(err, &re) && re.kind == "timeout"
}

// decodeStrict decodes one JSON value, rejecting unknown fields.
func decodeStrict(rd io.Reader, into any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, jobResponse{
		Status: "rejected", Error: err.Error(),
		RequestID: responseRequestID(w),
	})
}

// handleSubmit serves POST on a kind's route: parse, then admit, then
// answer — from the cache, or with the job's state, blocking until it
// completes when the request asks ?wait=1 (or true, yes).
func (e *engine) handleSubmit(k *kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp, err := k.spec(http.MaxBytesReader(w, r.Body, 4<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// The coordinator's trace context (if any) threads into the job
		// and its tracer; cached answers echo the trace ID too.
		traceID, _ := parseTraceHeader(r)
		hit, j, status, err := e.admit(r.Context(), sp, traceID, 0, "")
		switch {
		case err != nil:
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", strconv.Itoa(e.retryAfterSeconds()))
			}
			writeError(w, status, err)
			return
		case hit != nil:
			writeJSON(w, http.StatusOK, hit)
			return
		}
		switch r.URL.Query().Get("wait") {
		case "1", "true", "yes":
			select {
			case <-j.done:
			case <-r.Context().Done():
				// Client gone; the job keeps running. Report where it stands.
			}
		}
		resp := j.response()
		status = http.StatusAccepted
		if resp.Status == "done" || resp.Status == "failed" {
			status = http.StatusOK
		}
		writeJSON(w, status, resp)
	}
}

// retryAfterSeconds derives the 429 Retry-After hint from the actual
// backlog: the jobs ahead of a resubmission (queued plus running)
// spread over the worker pool, each costing the observed median job
// duration. A hardcoded constant under-hints when the queue is deep
// with minute-scale matrix jobs and over-hints for an empty queue of
// millisecond runs; this tracks both.
func (e *engine) retryAfterSeconds() int {
	depth := len(e.queue) + int(e.running.Load())
	return retryAfterHint(depth, e.opts.Workers, e.jobDur.quantile(0.5))
}

// retryAfterHint is the pure hint rule: ceil(backlog/workers) rounds
// of the median job duration, clamped to [1s, 120s]. With no duration
// history yet the median is 0 and the hint floors at 1s.
func retryAfterHint(depth, workers int, medianSec float64) int {
	if workers < 1 {
		workers = 1
	}
	rounds := (depth + workers - 1) / workers
	hint := int(math.Ceil(float64(rounds) * medianSec))
	return min(max(hint, 1), 120)
}

// jobRoute registers a handler for a job-scoped route; an unknown or
// evicted job ID is a 404.
func (e *engine) jobRoute(pattern string, handle func(http.ResponseWriter, *http.Request, *job)) {
	e.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		e.mu.Lock()
		j, ok := e.jobs[r.PathValue("id")]
		e.mu.Unlock()
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown or evicted job id"))
			return
		}
		handle(w, r, j)
	})
}

// statsSnapshot is the one shared source of the daemon's runtime
// stats: /healthz renders it as JSON and /metrics as Prometheus text,
// so the two surfaces cannot drift apart (a test asserts they agree).
type statsSnapshot struct {
	Draining      bool
	UptimeSeconds float64
	Workers       int
	QueueDepth    int
	QueueCapacity int
	JobsRunning   int64
	CacheEntries  int

	ReqTotal, CacheHits, CacheMisses int64
	Rejected, Completed, Failed      int64
	Timeouts, CacheEvictions         int64
	LedgerRecords, LedgerErrors      int64

	// Crash-safety layer (zero when Options.DataDir is unset).
	JournalEnabled                 bool
	JournalAppends, JournalErrors  int64
	JournalReplayedJobs            int64
	JournalCorruptFrames           int64
	JournalLastFsyncAgeSeconds     float64 // -1 = never synced
	StoreEntries                   int64
	StoreHits, StoreCorruptEvicted int64

	// Fault-injection and transient-I/O recovery counters.
	FaultsInjected          int64
	IORetries, IORecoveries int64

	// Peer-cache tier: a worker's submissions and a coordinator's
	// tickets served from a peer node's cache, and the lookups this node
	// answered for peers (GET /v1/cache/{key}).
	PeerHits, PeerMisses int64
	PeerServed           int64

	// Stage-granular build cache, per stage (nil when Options.DataDir
	// is unset — the stage cache needs the artifact store).
	StageCache core.StageCacheStats
}

// stats snapshots every runtime stat both observability endpoints
// serve. Counters are read individually (not under one lock), so a
// snapshot taken during a state transition may be skewed by one
// in-flight job — fine for monitoring, and both endpoints share
// whatever skew there is by construction.
func (e *engine) stats() statsSnapshot {
	e.mu.Lock()
	draining := e.draining
	e.mu.Unlock()
	st := statsSnapshot{
		Draining:      draining,
		UptimeSeconds: time.Since(e.start).Seconds(),
		Workers:       e.opts.Workers,
		QueueDepth:    len(e.queue),
		QueueCapacity: cap(e.queue),
		JobsRunning:   e.running.Load(),
		CacheEntries:  e.cache.len(),

		ReqTotal: e.reqTotal.Load(), CacheHits: e.cacheHits.Load(), CacheMisses: e.cacheMisses.Load(),
		Rejected: e.rejected.Load(), Completed: e.completed.Load(), Failed: e.failed.Load(),
		Timeouts: e.timeouts.Load(), CacheEvictions: e.cache.evictions(),
		LedgerRecords: e.ledgerRecords.Load(), LedgerErrors: e.ledgerErrors.Load(),

		JournalLastFsyncAgeSeconds: -1,
		FaultsInjected:             faultinject.Active().Injected(),
		IORetries:                  e.ioRetries.Load(),
		IORecoveries:               e.ioRecoveries.Load(),
		PeerHits:                   e.peerHits.Load(),
		PeerMisses:                 e.peerMisses.Load(),
		PeerServed:                 e.peerServed.Load(),
		StageCache:                 e.stages.Stats(),
	}
	if e.journal != nil {
		st.JournalEnabled = true
		st.JournalAppends = e.journal.appends.Load()
		st.JournalErrors = e.journal.errs.Load()
		st.JournalReplayedJobs = e.replayed.Load()
		st.JournalCorruptFrames = e.journal.corruptFrames
		if ns := e.journal.lastFsync.Load(); ns > 0 {
			st.JournalLastFsyncAgeSeconds = time.Since(time.Unix(0, ns)).Seconds()
		}
	}
	if e.store != nil {
		ss := e.store.Stats()
		st.StoreEntries = int64(e.store.Len())
		st.StoreHits = ss.Hits
		st.StoreCorruptEvicted = ss.CorruptEvicted
	}
	return st
}

// handleHealthz serves GET /healthz: the stats snapshot plus the
// executor's rollup.
func (e *engine) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := e.stats()
	body := map[string]any{
		"uptime_seconds": st.UptimeSeconds,
		"workers":        st.Workers,
		"queue_depth":    st.QueueDepth,
		"queue_capacity": st.QueueCapacity,
		"jobs_running":   st.JobsRunning,
		"cache_entries":  st.CacheEntries,
		"journal": map[string]any{
			"enabled":                st.JournalEnabled,
			"appends":                st.JournalAppends,
			"errors":                 st.JournalErrors,
			"replayed_jobs":          st.JournalReplayedJobs,
			"corrupt_frames":         st.JournalCorruptFrames,
			"last_fsync_age_seconds": st.JournalLastFsyncAgeSeconds,
		},
		"artifacts": map[string]any{
			"entries":           st.StoreEntries,
			"hits":              st.StoreHits,
			"corrupt_evictions": st.StoreCorruptEvicted,
		},
		"faults": map[string]any{
			"injected":      st.FaultsInjected,
			"io_retries":    st.IORetries,
			"io_recoveries": st.IORecoveries,
		},
		"peer": map[string]any{
			"hits":   st.PeerHits,
			"misses": st.PeerMisses,
			"served": st.PeerServed,
		},
		"stage_cache": st.StageCache,
	}
	status, code := "ok", http.StatusOK
	fields, up := e.exec.rollup()
	maps.Copy(body, fields)
	if !up {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	if st.Draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	body["status"] = status
	writeJSON(w, code, body)
}

// handleMetrics serves GET /metrics in Prometheus text format:
// counters and gauges from the shared stats snapshot, the log-bucketed
// latency histograms (job duration, queue wait, per-stage duration),
// and the executor's rollup series.
func (e *engine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := e.stats()
	gauge := func(name string, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name string, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("vpgad_requests_total", "HTTP requests received", st.ReqTotal)
	counter("vpgad_cache_hits_total", "submissions served from the content-addressed cache", st.CacheHits)
	counter("vpgad_cache_misses_total", "submissions that required a fresh job", st.CacheMisses)
	counter("vpgad_cache_evictions_total", "content-addressed cache entries evicted by the LRU bound", st.CacheEvictions)
	counter("vpgad_jobs_rejected_total", "submissions rejected by queue backpressure", st.Rejected)
	counter("vpgad_jobs_completed_total", "jobs that finished successfully", st.Completed)
	counter("vpgad_jobs_failed_total", "jobs that finished in error", st.Failed)
	counter("vpgad_jobs_timeout_total", "jobs that failed on a wall-clock budget, local or on a remote worker", st.Timeouts)
	counter("vpgad_ledger_records_total", "QoR records appended to the run ledger", st.LedgerRecords)
	counter("vpgad_ledger_errors_total", "run-ledger append failures", st.LedgerErrors)
	counter("vpgad_journal_appends_total", "job-journal entries appended", st.JournalAppends)
	counter("vpgad_journal_errors_total", "job-journal append failures", st.JournalErrors)
	counter("vpgad_journal_replayed_jobs_total", "incomplete jobs re-enqueued from the journal at startup", st.JournalReplayedJobs)
	counter("vpgad_journal_corrupt_frames_total", "torn journal frames discarded at startup", st.JournalCorruptFrames)
	counter("vpgad_store_hits_total", "artifact-store reads that verified and decoded", st.StoreHits)
	counter("vpgad_store_corrupt_evictions_total", "artifact-store entries evicted on checksum failure", st.StoreCorruptEvicted)
	counter("vpgad_faults_injected_total", "faults fired by the injection harness", st.FaultsInjected)
	counter("vpgad_io_retries_total", "transient I/O re-attempts", st.IORetries)
	counter("vpgad_io_recoveries_total", "transient I/O failures that recovered on retry", st.IORecoveries)
	counter("vpgad_peer_hits_total", "submissions or tickets served from a peer node's cache", st.PeerHits)
	counter("vpgad_peer_misses_total", "peer-cache lookups that missed or failed to decode", st.PeerMisses)
	counter("vpgad_peer_served_total", "cache lookups this node answered for peers", st.PeerServed)
	gauge("vpgad_store_entries", "live artifact-store entries", st.StoreEntries)
	gauge("vpgad_jobs_running", "jobs executing right now", st.JobsRunning)
	gauge("vpgad_queue_depth", "jobs queued but not yet running", int64(st.QueueDepth))
	gauge("vpgad_queue_capacity", "queue bound before 429 backpressure", int64(st.QueueCapacity))
	gauge("vpgad_workers", "worker pool size", int64(st.Workers))
	gauge("vpgad_cache_entries", "live content-addressed cache entries", int64(st.CacheEntries))
	// Stage-granular build-cache counters, labeled by stage. Emitted
	// only once a stage has been resolved (Prometheus treats an absent
	// series as zero).
	if len(st.StageCache) > 0 {
		fmt.Fprintf(w, "# HELP vpgad_stage_cache_hits_total flow stages satisfied from the stage-granular build cache\n# TYPE vpgad_stage_cache_hits_total counter\n")
		for _, stage := range st.StageCache.Stages() {
			fmt.Fprintf(w, "vpgad_stage_cache_hits_total{stage=%q} %d\n", stage, st.StageCache[stage].Hits)
		}
		fmt.Fprintf(w, "# HELP vpgad_stage_cache_misses_total flow stages recomputed despite the stage-granular build cache\n# TYPE vpgad_stage_cache_misses_total counter\n")
		for _, stage := range st.StageCache.Stages() {
			fmt.Fprintf(w, "vpgad_stage_cache_misses_total{stage=%q} %d\n", stage, st.StageCache[stage].Misses)
		}
	}
	fmt.Fprintf(w, "# HELP vpgad_uptime_seconds seconds since the daemon started\n# TYPE vpgad_uptime_seconds gauge\nvpgad_uptime_seconds %s\n",
		strconv.FormatFloat(st.UptimeSeconds, 'f', 3, 64))
	e.jobDur.write(w, "vpgad_job_duration_seconds", "wall-clock job execution time")
	e.queueWait.write(w, "vpgad_job_queue_wait_seconds", "time from submission to a worker picking the job up")
	e.stageDur.write(w, "vpgad_stage_duration_seconds", "per-flow-stage wall-clock time across all jobs")
	e.exec.writeRollup(w)
}

// handleEvents serves GET /v1/runs/{id}/events: the job's telemetry as
// a Server-Sent Events stream — run/stage/attempt boundaries as they
// happen, so an in-flight matrix is observable before it completes.
// The stream replays the job's full event history first (connecting
// late loses nothing), then follows live until the job finishes (a
// final "done" event carries the terminal status) or the client
// disconnects.
func handleEvents(w http.ResponseWriter, r *http.Request, j *job) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	emit := func(evs []obs.Event) {
		for _, ev := range evs {
			enc, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, enc)
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
	}
	cursor := 0
	for {
		evs := j.tracer.EventsSince(cursor)
		cursor += len(evs)
		emit(evs)
		select {
		case <-j.done:
			// Drain anything published between the last poll and
			// completion, then close the stream with the terminal status.
			emit(j.tracer.EventsSince(cursor))
			fmt.Fprintf(w, "event: done\ndata: {\"status\":%q}\n\n", j.response().Status)
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		case <-j.tracer.Wait(cursor):
		}
	}
}
