// Package server is the VPGA flow service: an HTTP/JSON daemon that
// exposes the implementation flow, the Table 1/2 matrix and the
// exploration sweeps as declarative, serializable requests
// (core.FlowRequest and friends) instead of language-level call
// signatures.
//
//	POST /v1/runs                one flow run (repair ladder optional)
//	POST /v1/matrix              the 4-design x 2-arch x 2-flow matrix
//	POST /v1/sweeps/granularity  PLB-architecture family sweep
//	POST /v1/sweeps/routing      per-channel track-capacity sweep
//	GET  /v1/runs/{id}           job status / result
//	GET  /v1/runs/{id}/trace     Chrome trace-event JSON of the job
//	GET  /v1/runs/{id}/events    live SSE stream of the job's telemetry
//	GET  /healthz                liveness + queue stats
//	GET  /metrics                Prometheus text metrics (histograms incl.)
//
// Every run-shaped result is memoized in a bounded LRU cache keyed by
// the request's content address (FlowRequest.CacheKey): flows are
// seed-deterministic by construction, so a cache hit returns a report
// bit-identical (after StripMetrics) to a fresh run. Jobs execute on
// a bounded worker pool behind a bounded queue — a full queue answers
// 429 with Retry-After instead of blocking — with per-job timeouts
// through the flow's context plumbing, and Shutdown drains gracefully.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
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

// Options configures a Server. The zero value serves with GOMAXPROCS
// workers, a 2x-workers queue, a 256-entry cache, no per-job timeout
// and 64 retained job records.
type Options struct {
	// Workers bounds concurrently executing jobs (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; a full
	// queue rejects submissions with 429 (0 = 2*Workers).
	QueueDepth int
	// CacheSize bounds the content-addressed result cache (0 = 256).
	CacheSize int
	// JobTimeout bounds each job's wall time through the flow's context
	// plumbing; an expired job fails with stage "timeout" (0 = none).
	JobTimeout time.Duration
	// JobsKeep bounds retained completed-job records — status and trace
	// of older jobs are evicted, oldest first (0 = 64). The result
	// cache is unaffected by job eviction.
	JobsKeep int
	// LedgerPath, when set, appends one qor.Record per completed
	// flow-run-shaped result (runs, matrix cells) to the JSONL run
	// ledger at that path — the durable QoR history the drift gate
	// consumes. Append failures are counted, never fatal.
	LedgerPath string
	// DataDir, when set, turns on the crash-safety layer rooted there:
	// a CRC-framed job journal (DataDir/journal.wal) replayed on
	// restart — incomplete jobs are re-enqueued under their original
	// IDs — and a checksummed content-addressed artifact store
	// (DataDir/artifacts) that persists completed results and
	// placement checkpoints across restarts. Empty = in-memory only,
	// exactly the pre-journal behavior.
	DataDir string
	// PeerLookup, when set, adds a peer-cache tier to dispatch: after
	// the local LRU and artifact store both miss, the function is asked
	// for the raw JSON of a result computed elsewhere in the cluster,
	// keyed by content address. A hit is promoted into the memory LRU
	// only — never the artifact store, whose contents stay exactly what
	// this node computed, so a peer result is never double-stored — and
	// a payload that fails to decode degrades to local compute.
	PeerLookup func(ctx context.Context, kind, key string) ([]byte, bool)
	// Logger receives structured request/job lifecycle records (nil =
	// discard). Jobs log with job_id/kind/trace_id attributes so a
	// cluster-wide grep on one trace ID finds every node's part of it.
	Logger *slog.Logger
	// Node names this worker in log lines ("" = standalone) — typically
	// its advertised base URL in a cluster.
	Node string

	// testJobStart, when set by a test, runs at the top of every job on
	// its worker goroutine — tests block here to hold jobs "running"
	// and fill the queue deterministically.
	testJobStart func(j *job)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 2 * o.Workers
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 256
	}
	if o.JobsKeep <= 0 {
		o.JobsKeep = 64
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

// job is one queued unit of work: a closure over its resolved request
// plus the bookkeeping the status and trace endpoints serve.
type job struct {
	id      string
	kind    string // "run", "matrix", "sweep/granularity", "sweep/routing"
	key     string // content address ("" = uncacheable)
	label   string
	tracer  *obs.Tracer
	created time.Time
	// exec runs the job; cachePrep converts its result into the
	// immutable value stored in the cache (nil = store as returned);
	// ledger extracts the result's QoR records for the run ledger
	// (nil = the job is not ledger-shaped).
	exec      func(ctx context.Context, tr *obs.Tracer) (any, error)
	cachePrep func(any) any
	ledger    func(any) []qor.Record
	// body is the canonical JSON of the originating request — what the
	// journal persists on acceptance so replay can rebuild the job
	// (nil = not journaled).
	body []byte
	// stageKeys is the run's per-stage key chain (run jobs only):
	// which content addresses the job's artifacts live under, so
	// clients can see which prefix the run will reuse.
	stageKeys []core.StageKey
	// traceID is the distributed trace this job belongs to, taken from
	// the X-Vpga-Trace header a coordinator stamped on the submission
	// ("" = untraced local job).
	traceID string
	// replayed marks a job rebuilt from the journal after a restart.
	replayed bool

	done chan struct{} // closed when the job reaches done/failed

	mu      sync.Mutex
	status  string // "queued", "running", "done", "failed"
	result  any
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
func (j *job) complete(result any, err error) {
	j.mu.Lock()
	if err != nil {
		j.status = "failed"
		j.errMsg = err.Error()
		j.errKind = errKind(err)
		var fe *core.FlowError
		if errors.As(err, &fe) {
			j.stage = fe.Stage
		}
	} else {
		j.status = "done"
		j.result = result
	}
	j.mu.Unlock()
	close(j.done)
}

// response snapshots the job as its API representation.
func (j *job) response() jobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobResponse{
		ID: j.id, Kind: j.kind, Status: j.status, Key: j.key,
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
	// StageKeys is the run's per-stage key chain (run jobs only): the
	// content addresses of the stage-granular build-cache artifacts the
	// run reads and writes, in pipeline order.
	StageKeys []core.StageKey `json:"stage_keys,omitempty"`
	// TraceID is the distributed trace the job belongs to — minted by
	// the coordinator per client job, or echoed from the X-Vpga-Trace
	// header a submission carried ("" = untraced).
	TraceID string `json:"trace_id,omitempty"`
	// RequestID echoes the request's X-Request-ID on error envelopes so
	// a rejected submission is correlatable in logs without headers.
	RequestID string `json:"request_id,omitempty"`
}

// Server is the flow service. Create with New, serve with any
// http.Server (it implements http.Handler), stop with Shutdown.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	cache *lru
	queue chan *job
	log   *slog.Logger // opts.Logger with the node attr pre-bound

	// Crash-safety layer (nil when Options.DataDir is empty): the job
	// journal and the persistent artifact store.
	journal *journal
	store   *artifact.Store
	// stages is the stage-granular build cache over the artifact store
	// (nil without DataDir): every flow run the daemon executes
	// restores the deepest cached prefix of its stage-key chain and
	// persists the stages it computes, so requests sharing a prefix —
	// clock-target sweeps, routing-knob variants, flow-a/b pairs —
	// reuse each other's artifacts across jobs and restarts.
	stages *core.StageCache

	mu        sync.Mutex
	jobs      map[string]*job
	inflight  map[string]*job // queued/running jobs by cache key (dedupe)
	doneOrder []string        // completed jobs, oldest first, for eviction
	draining  bool

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	nextID  atomic.Int64
	start   time.Time

	// Metrics counters (atomic; surfaced by /metrics).
	reqTotal, cacheHits, cacheMisses atomic.Int64
	rejected, completed, failed      atomic.Int64
	timeouts                         atomic.Int64
	running                          atomic.Int64
	ledgerRecords, ledgerErrors      atomic.Int64
	replayed                         atomic.Int64
	ioRetries, ioRecoveries          atomic.Int64
	peerHits, peerMisses             atomic.Int64
	peerServed                       atomic.Int64

	// Latency histograms (zero-dependency log buckets; see histogram.go).
	jobDur    *histogram
	queueWait *histogram
	stageDur  *histogramVec
}

// New starts a Server: its worker pool runs until Shutdown. With
// Options.DataDir set, New opens the journal and artifact store,
// replays the journal, and re-enqueues every job that never reached a
// terminal state before the last shutdown or crash.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	var (
		store   *artifact.Store
		jn      *journal
		pending []journalEntry
		err     error
	)
	if opts.DataDir != "" {
		store, err = artifact.Open(filepath.Join(opts.DataDir, "artifacts"))
		if err != nil {
			return nil, err
		}
		jn, pending, err = openJournal(filepath.Join(opts.DataDir, "journal.wal"))
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		mux:      http.NewServeMux(),
		cache:    newLRU(opts.CacheSize),
		queue:    make(chan *job, opts.QueueDepth),
		journal:  jn,
		store:    store,
		stages:   core.NewStageCache(store),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		baseCtx:  ctx,
		cancel:   cancel,
		start:    time.Now(),

		jobDur:    &histogram{},
		queueWait: &histogram{},
		stageDur:  newHistogramVec("stage"),
	}
	s.log = opts.Logger
	if opts.Node != "" {
		s.log = s.log.With("node", opts.Node)
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("POST /v1/matrix", s.handleMatrix)
	s.mux.HandleFunc("POST /v1/sweeps/granularity", s.handleGranularitySweep)
	s.mux.HandleFunc("POST /v1/sweeps/routing", s.handleRoutingSweep)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	// Aliases matching the coordinator's job-shaped routes, so tooling
	// can poll either daemon role with one URL scheme.
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheLookup)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if jn != nil {
		s.replayJournal(pending)
	}
	return s, nil
}

// replayJournal reconstructs job state from the replayed entries:
// jobs with a terminal entry are history (their results live in the
// artifact store, keyed by content address); jobs without one are
// rebuilt from their journaled bodies and re-enqueued under their
// original IDs, so a client polling a pre-crash job ID keeps working
// across the restart. The journal is then compacted down to the
// still-incomplete accepted entries.
func (s *Server) replayJournal(entries []journalEntry) {
	type acc struct {
		entry    journalEntry
		terminal bool
	}
	var (
		order []string
		byID  = map[string]*acc{}
		maxID int64
	)
	for _, e := range entries {
		if n := jobIDNum(e.ID); n > maxID {
			maxID = n
		}
		switch e.State {
		case "accepted":
			if byID[e.ID] == nil {
				byID[e.ID] = &acc{entry: e}
				order = append(order, e.ID)
			}
		case "done", "failed":
			if a := byID[e.ID]; a != nil {
				a.terminal = true
			}
		}
	}
	// Resume the ID sequence past every journaled job, so replayed IDs
	// never collide with fresh submissions.
	if maxID > s.nextID.Load() {
		s.nextID.Store(maxID)
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
		j, err := s.buildJob(a.entry.Kind, a.entry.Body)
		if err != nil {
			// The body no longer builds (schema drift); drop the job —
			// the client's resubmission will be validated afresh.
			continue
		}
		j.id = id
		j.replayed = true
		jobs = append(jobs, j)
		e := a.entry
		e.Seq = int64(len(keep) + 1)
		keep = append(keep, e)
	}
	s.journal.compact(keep)
	if len(jobs) > 0 {
		// Register every replayed job before the (possibly slow,
		// backpressured) re-enqueue: a client that was polling
		// GET /v1/runs/{id} or following the SSE stream across the
		// restart must find the job immediately, not 404 until its
		// queue send happens to land.
		s.mu.Lock()
		for _, j := range jobs {
			s.jobs[j.id] = j
			if j.key != "" {
				s.inflight[j.key] = j
			}
		}
		s.mu.Unlock()
		go s.enqueueReplay(jobs)
	}
}

// jobIDNum extracts the numeric part of a "j%06d" job ID (0 when the
// ID is not of that shape).
func jobIDNum(id string) int64 {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// enqueueReplay feeds replayed jobs into the queue with blocking
// backpressure (a restart may hold more incomplete jobs than the
// queue bounds). The jobs are already registered in s.jobs; this only
// performs the queue sends. Sends happen under the server mutex with
// draining checked, so a concurrent Shutdown — which closes the queue
// under the same mutex — can never race a send onto a closed channel.
func (s *Server) enqueueReplay(jobs []*job) {
	for _, j := range jobs {
		for {
			s.mu.Lock()
			if s.draining {
				s.mu.Unlock()
				return
			}
			var sent bool
			select {
			case s.queue <- j:
				sent = true
			default:
			}
			s.mu.Unlock()
			if sent {
				s.replayed.Add(1)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// retryIO wraps transient I/O (journal appends, artifact writes,
// ledger appends) in a bounded jittered-backoff retry. Injected
// faults are counter-based, so the re-attempt re-arms the fault point
// and usually clears; a persistent real failure still surfaces after
// the attempts are spent.
func (s *Server) retryIO(op func() error) error {
	retried := false
	err := faultinject.Retry(3, 2*time.Millisecond, op, func(int, error) {
		retried = true
		s.ioRetries.Add(1)
	})
	if err == nil && retried {
		s.ioRecoveries.Add(1)
	}
	return err
}

// ServeHTTP implements http.Handler. The request ID is echoed (or
// minted) on the response before mux dispatch, so every handler —
// error paths included — already sees it set.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Add(1)
	reqID := ensureRequestID(w, r)
	s.log.Debug("request", "method", r.Method, "path", r.URL.Path, "request_id", reqID)
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: no new submissions are accepted (503),
// queued and running jobs finish, then the worker pool exits. If ctx
// expires first, in-flight flow runs are cancelled at their next
// iteration boundary and Shutdown still waits for the pool before
// returning ctx's error. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		s.cancel()
		s.journal.close()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-drained
		s.journal.close()
		return ctx.Err()
	}
}

// worker executes queued jobs until the queue closes on drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	j.setStatus("running")
	s.queueWait.observe(time.Since(j.created).Seconds())
	s.running.Add(1)
	defer s.running.Add(-1)
	if s.opts.testJobStart != nil {
		s.opts.testJobStart(j)
	}
	// A "running" entry is a progress note, not a durability boundary:
	// no fsync, no retry — replay treats accepted-but-not-terminal jobs
	// identically whether or not this landed.
	s.journal.append(journalEntry{ID: j.id, State: "running"}, false)
	ctx := s.baseCtx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}
	execStart := time.Now()
	res, err := j.exec(ctx, j.tracer)
	// An injected transient fault (a stage-boundary disk error the
	// harness modeled) is retried end-to-end with jittered backoff:
	// flows are deterministic, so the re-run recomputes the same
	// result, and the counter-based fault usually does not re-fire.
	for attempt := 1; attempt <= 2 && err != nil &&
		errors.Is(err, faultinject.ErrInjected) && ctx.Err() == nil; attempt++ {
		s.ioRetries.Add(1)
		time.Sleep(time.Duration(attempt) * 2 * time.Millisecond)
		res, err = j.exec(ctx, j.tracer)
		if err == nil {
			s.ioRecoveries.Add(1)
		}
	}
	s.jobDur.observe(time.Since(execStart).Seconds())
	s.observeStages(j.tracer)
	if err != nil {
		s.failed.Add(1)
		if isTimeout(err) {
			s.timeouts.Add(1)
		}
	} else {
		s.completed.Add(1)
		s.appendLedger(j, res)
		if j.key != "" {
			v := res
			if j.cachePrep != nil {
				v = j.cachePrep(res)
			}
			s.cache.put(j.key, v)
			s.persistResult(j, v)
		}
	}
	s.journalTerminal(j, err)
	if err != nil {
		s.log.Warn("job failed", "job_id", j.id, "kind", j.kind, "trace_id", j.traceID,
			"duration", time.Since(execStart).Round(time.Millisecond), "error", err)
	} else {
		s.log.Info("job done", "job_id", j.id, "kind", j.kind, "trace_id", j.traceID,
			"duration", time.Since(execStart).Round(time.Millisecond))
	}
	j.complete(res, err)
	s.retire(j)
}

// persistResult spills a completed result to the artifact store, so a
// restarted daemon serves it without recomputing. Best-effort with
// bounded retry: a result that fails to persist is still served from
// memory, and a post-restart resubmission simply recomputes it.
func (s *Server) persistResult(j *job, v any) {
	if s.store == nil || j.key == "" {
		return
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.retryIO(func() error { return s.store.Put(j.key, enc) })
}

// journalTerminal durably records the job's outcome. The fsynced
// terminal entry is what lets the post-restart replay skip the job;
// if the append ultimately fails the job merely replays after a crash
// — recomputing a deterministic flow, never corrupting state.
func (s *Server) journalTerminal(j *job, jobErr error) {
	if s.journal == nil {
		return
	}
	e := journalEntry{ID: j.id, State: "done"}
	if jobErr != nil {
		e.State = "failed"
		e.Error = jobErr.Error()
		var fe *core.FlowError
		if errors.As(jobErr, &fe) {
			e.Stage = fe.Stage
		}
	}
	s.retryIO(func() error { return s.journal.append(e, true) })
}

// isTimeout reports whether a job failed on its wall-clock budget:
// either the context deadline surfaced directly or the flow supervisor
// already classified the failing stage as "timeout".
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var fe *core.FlowError
	return errors.As(err, &fe) && fe.Stage == "timeout"
}

// errKind distills a job error into the machine-readable class the
// response envelope carries ("" = unclassified). Coordinators use it
// to keep cluster-level counters (vpgad_jobs_timeout_total) correct
// for failures that happened on a remote worker.
func errKind(err error) string {
	switch {
	case err == nil:
		return ""
	case isTimeout(err):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	}
	var fe *core.FlowError
	if errors.As(err, &fe) && fe.Stage == "cancelled" {
		return "cancelled"
	}
	return ""
}

// observeStages feeds the job's stage spans into the per-stage
// duration histograms.
func (s *Server) observeStages(tr *obs.Tracer) {
	for _, run := range tr.Runs() {
		for _, span := range run.Spans() {
			s.stageDur.with(span.Stage).observe(span.Dur.Seconds())
		}
	}
}

// appendLedger appends a completed job's QoR records to the run
// ledger, when both a ledger path and a ledger-shaped job are present.
// The ledger is observability, not a result: append failures count on
// vpgad_ledger_errors_total and never fail the job.
func (s *Server) appendLedger(j *job, res any) {
	if s.opts.LedgerPath == "" || j.ledger == nil {
		return
	}
	recs := j.ledger(res)
	if len(recs) == 0 {
		return
	}
	now := time.Now()
	for i := range recs {
		recs[i].Stamp(now, "")
	}
	// Bounded retry: a failed append truncates back to a clean tail,
	// so re-appending cannot stack partial lines.
	if err := s.retryIO(func() error {
		return qor.Append(s.opts.LedgerPath, recs...)
	}); err != nil {
		s.ledgerErrors.Add(1)
		return
	}
	s.ledgerRecords.Add(int64(len(recs)))
}

// retire enforces the completed-job retention bound: job records —
// status and tracer — beyond Options.JobsKeep are evicted oldest
// first. The result cache keeps serving evicted jobs' results.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.key != "" && s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.opts.JobsKeep {
		old := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		delete(s.jobs, old)
	}
}

// newJob allocates a job record.
func (s *Server) newJob(kind, key, label string, exec func(context.Context, *obs.Tracer) (any, error)) *job {
	return &job{
		id:      fmt.Sprintf("j%06d", s.nextID.Add(1)),
		kind:    kind,
		key:     key,
		label:   label,
		tracer:  obs.NewTracer(),
		created: time.Now(),
		exec:    exec,
		done:    make(chan struct{}),
		status:  "queued",
	}
}

// submit enqueues a job with explicit backpressure: a full queue is a
// 429 with Retry-After, a draining server a 503 — submissions never
// block a worker or the caller. An accepted job is journaled (fsync)
// before the acceptance is visible; a journal failure after bounded
// retry is availability-over-durability — the job still runs, it just
// would not survive a crash, and the error counter records the gap.
func (s *Server) submit(j *job) (status int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return http.StatusServiceUnavailable, errors.New("server is draining")
	}
	// Every send to the queue happens under s.mu, so a slot free here is
	// still free after the journal append. Journaling before the send
	// keeps "accepted" ahead of the worker's "running" entry.
	if len(s.queue) == cap(s.queue) {
		s.rejected.Add(1)
		return http.StatusTooManyRequests,
			fmt.Errorf("queue full (%d pending); retry later", cap(s.queue))
	}
	s.jobs[j.id] = j
	if j.key != "" {
		s.inflight[j.key] = j
	}
	if s.journal != nil && j.body != nil {
		e := journalEntry{ID: j.id, State: "accepted", Kind: j.kind, Key: j.key, Body: j.body}
		s.retryIO(func() error { return s.journal.append(e, true) })
	}
	s.queue <- j
	s.log.Info("job accepted", "job_id", j.id, "kind", j.kind, "label", j.label, "trace_id", j.traceID)
	return 0, nil
}

// decodeJSON strictly decodes a bounded request body.
func decodeJSON(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, 4<<20)
	dec := json.NewDecoder(r.Body)
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

// wantWait reports whether the request asked to block until the job
// completes (?wait=1 / ?wait=true).
func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// dispatch is the tail every submission endpoint shares: cache lookup
// (memory LRU, then the persistent artifact store), in-flight dedupe,
// enqueue with backpressure, and the synchronous-wait option.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, j *job) {
	// Thread the coordinator's trace context (if any) into the job and
	// its tracer before any answer path: cached responses echo the
	// trace ID too, and the tracer stamps it on the job's Chrome trace
	// fragment so the merged cluster timeline can claim it.
	if tid, _ := parseTraceHeader(r); tid != "" {
		j.traceID = tid
		j.tracer.SetTraceID(tid)
	}
	if v, ok := s.cache.get(j.key); ok {
		s.cacheHits.Add(1)
		writeCached(w, j, v)
		return
	}
	if v, ok := s.storeGet(j.key, j.kind); ok {
		// Promote the persisted result into the LRU; serving it is a
		// cache hit that happened to survive a restart.
		s.cacheHits.Add(1)
		s.cache.put(j.key, v)
		writeCached(w, j, v)
		return
	}
	// Peer-cache tier: another node may have computed this exact
	// request already. A decoded hit is promoted into the memory LRU
	// only (no artifact-store write — the peer already persists it);
	// a corrupt payload is a miss and the job computes locally.
	if s.opts.PeerLookup != nil && j.key != "" {
		if raw, ok := s.opts.PeerLookup(r.Context(), j.kind, j.key); ok {
			if v, decoded := decodeStored(j.kind, raw); decoded {
				s.peerHits.Add(1)
				s.cache.put(j.key, v)
				writeCached(w, j, v)
				return
			}
		}
		s.peerMisses.Add(1)
	}
	s.cacheMisses.Add(1)
	// In-flight dedupe: an identical request races (or, after a crash,
	// follows) a queued/running job with the same content address —
	// attach to that job instead of computing the same result twice.
	s.mu.Lock()
	cur := s.inflight[j.key]
	s.mu.Unlock()
	if j.key != "" && cur != nil {
		respondJob(w, r, cur)
		return
	}
	if status, err := s.submit(j); err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		writeError(w, status, err)
		return
	}
	respondJob(w, r, j)
}

// retryAfterSeconds derives the 429 Retry-After hint from the actual
// backlog: the jobs ahead of a resubmission (queued plus running)
// spread over the worker pool, each costing the observed median job
// duration. A hardcoded constant under-hints when the queue is deep
// with minute-scale matrix jobs and over-hints for an empty queue of
// millisecond runs; this tracks both.
func (s *Server) retryAfterSeconds() int {
	depth := len(s.queue) + int(s.running.Load())
	return retryAfterHint(depth, s.opts.Workers, s.jobDur.quantile(0.5))
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
	if hint < 1 {
		hint = 1
	}
	if hint > 120 {
		hint = 120
	}
	return hint
}

// respondJob answers a submission with the job's state, optionally
// blocking on ?wait=1 until it completes.
func respondJob(w http.ResponseWriter, r *http.Request, j *job) {
	if wantWait(r) {
		select {
		case <-j.done:
		case <-r.Context().Done():
			// Client gone; the job keeps running. Report where it stands.
		}
	}
	resp := j.response()
	status := http.StatusAccepted
	if resp.Status == "done" || resp.Status == "failed" {
		status = http.StatusOK
	}
	writeJSON(w, status, resp)
}

// writeCached answers a submission from a cached value.
func writeCached(w http.ResponseWriter, j *job, v any) {
	if rep, isReport := v.(*core.Report); isReport {
		v = rep.Clone() // never hand the cached report itself to encoders
	}
	writeJSON(w, http.StatusOK, jobResponse{
		Kind: j.kind, Status: "done", Cached: true, Key: j.key, Result: v,
		TraceID: j.traceID,
	})
}

// storeGet consults the persistent artifact store for a completed
// result of this kind; every failure mode inside the store is a miss.
func (s *Server) storeGet(key, kind string) (any, bool) {
	if s.store == nil || key == "" {
		return nil, false
	}
	raw, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	return decodeStored(kind, raw)
}

// handleCacheLookup serves GET /v1/cache/{key}: the lookup-only peer
// endpoint answering the raw JSON of a locally cached or persisted
// result. It never computes and never forwards — a miss is a plain
// 404 — so peer lookups cannot cascade across the cluster.
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if v, ok := s.cache.get(key); ok {
		if rep, isReport := v.(*core.Report); isReport {
			v = rep.Clone() // same rule as writeCached: never hand out the cached report
		}
		if enc, err := json.Marshal(v); err == nil {
			s.peerServed.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Write(enc)
			return
		}
	}
	if s.store != nil {
		if raw, ok := s.store.Get(key); ok {
			s.peerServed.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Write(raw)
			return
		}
	}
	writeError(w, http.StatusNotFound, errors.New("no cached result for key"))
}

// handleStatus serves GET /v1/runs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown or evicted job id"))
		return
	}
	writeJSON(w, http.StatusOK, j.response())
}

// handleTrace serves GET /v1/runs/{id}/trace: the job's Chrome
// trace-event JSON (chrome://tracing, ui.perfetto.dev).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown or evicted job id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := j.tracer.WriteChromeTrace(w); err != nil {
		// Headers are gone; nothing useful left to do but log-free bail.
		return
	}
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

	// Peer-cache tier (zero when Options.PeerLookup is unset and no
	// peer has queried GET /v1/cache/{key}).
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
func (s *Server) stats() statsSnapshot {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	st := statsSnapshot{
		Draining:      draining,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.opts.Workers,
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		JobsRunning:   s.running.Load(),
		CacheEntries:  s.cache.len(),

		ReqTotal: s.reqTotal.Load(), CacheHits: s.cacheHits.Load(), CacheMisses: s.cacheMisses.Load(),
		Rejected: s.rejected.Load(), Completed: s.completed.Load(), Failed: s.failed.Load(),
		Timeouts: s.timeouts.Load(), CacheEvictions: s.cache.evictions(),
		LedgerRecords: s.ledgerRecords.Load(), LedgerErrors: s.ledgerErrors.Load(),

		JournalLastFsyncAgeSeconds: -1,
		FaultsInjected:             faultinject.Active().Injected(),
		IORetries:                  s.ioRetries.Load(),
		IORecoveries:               s.ioRecoveries.Load(),
		PeerHits:                   s.peerHits.Load(),
		PeerMisses:                 s.peerMisses.Load(),
		PeerServed:                 s.peerServed.Load(),
	}
	if s.journal != nil {
		st.JournalEnabled = true
		st.JournalAppends = s.journal.appends.Load()
		st.JournalErrors = s.journal.errs.Load()
		st.JournalReplayedJobs = s.replayed.Load()
		st.JournalCorruptFrames = s.journal.corruptFrames
		if ns := s.journal.lastFsync.Load(); ns > 0 {
			st.JournalLastFsyncAgeSeconds = time.Since(time.Unix(0, ns)).Seconds()
		}
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.StoreEntries = int64(s.store.Len())
		st.StoreHits = ss.Hits
		st.StoreCorruptEvicted = ss.CorruptEvicted
	}
	st.StageCache = s.stages.Stats()
	return st
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.stats()
	status := "ok"
	code := http.StatusOK
	if st.Draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
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
	})
}

// handleMetrics serves GET /metrics in Prometheus text format:
// counters and gauges from the shared stats snapshot, plus the
// log-bucketed latency histograms (job duration, queue wait, per-stage
// duration).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := s.stats()
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
	counter("vpgad_jobs_timeout_total", "jobs that failed on their per-job wall-clock budget", st.Timeouts)
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
	counter("vpgad_peer_hits_total", "submissions served from a peer node's cache", st.PeerHits)
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
	s.jobDur.write(w, "vpgad_job_duration_seconds", "wall-clock job execution time")
	s.queueWait.write(w, "vpgad_job_queue_wait_seconds", "time from submission to a worker picking the job up")
	s.stageDur.write(w, "vpgad_stage_duration_seconds", "per-flow-stage wall-clock time across all jobs")
}

// handleEvents serves GET /v1/runs/{id}/events: the job's telemetry as
// a Server-Sent Events stream — run/stage/attempt boundaries as they
// happen, so an in-flight matrix is observable before it completes.
// The stream replays the job's full event history first (connecting
// late loses nothing), then follows live until the job finishes (a
// final "done" event carries the terminal status) or the client
// disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown or evicted job id"))
		return
	}
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
			evs := j.tracer.EventsSince(cursor)
			emit(evs)
			resp := j.response()
			fmt.Fprintf(w, "event: done\ndata: {\"status\":%q}\n\n", resp.Status)
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		case <-j.tracer.Wait(cursor):
		}
	}
}
