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
// Two daemons serve this API over one job engine (engine.go): a worker
// Server runs flows on a local pool, and a Coordinator (coordinator.go)
// shards them over worker nodes. Every result is memoized in a bounded
// LRU cache keyed by the request's content address: flows are
// seed-deterministic by construction, so a cache hit returns a report
// bit-identical (after StripMetrics) to a fresh run. A worker's jobs
// execute on a bounded pool behind a bounded queue — a full queue
// answers 429 with Retry-After instead of blocking — with per-job
// timeouts through the flow's context plumbing, and Shutdown drains
// gracefully.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"vpga/internal/core"
	"vpga/internal/obs"
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
	// its runner goroutine — tests block here to hold jobs "running"
	// and fill the queue deterministically.
	testJobStart func(j *job)
}

func (o Options) withDefaults() Options {
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

// Server is the worker daemon: the job engine with a local executor
// that runs core.Run, core.RunMatrix and the sweeps on a bounded pool,
// restoring and persisting stages through the stage cache. Create with
// New, serve with any http.Server (it implements http.Handler), stop
// with Shutdown.
type Server struct {
	*engine
}

// New starts a Server: its worker pool runs until Shutdown. With
// Options.DataDir set, New opens the journal and artifact store,
// replays the journal, and re-enqueues every job that never reached a
// terminal state before the last shutdown or crash.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 2 * opts.Workers
	}
	s := &Server{}
	e, pending, err := newEngine(opts, "j", s)
	if err != nil {
		return nil, err
	}
	s.engine = e
	if e.stages == nil {
		// Without a data directory the worker keeps a bounded in-memory
		// stage tier, so a flow b the coordinator sends after its flow a
		// restores that run's compacted netlist and placement.
		e.stages = core.NewMemStageCache()
	}
	e.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheLookup)
	e.launchAll(pending)
	return s, nil
}

// caches: a worker keeps every result it computes.
func (s *Server) caches(jobRequest) bool { return true }

// prepare derives a run's stage-key chain — which content addresses
// its artifacts live under, so clients can see which prefix the run
// will reuse. Only a job that will run pays for it: a cache hit never
// carries the chain.
func (s *Server) prepare(j *job) {
	if r, ok := j.req.(runRequest); ok {
		// The request validated at parse time; a chain that still fails
		// to derive only leaves the envelope without stage_keys.
		j.stageKeys, _ = r.StageKeys()
	}
}

func (s *Server) execute(ctx context.Context, j *job) (any, bool, error) {
	res, err := j.req.runLocal(ctx, j.tracer, s.stages)
	return res, false, err
}

// rollup: a worker serves over no other nodes.
func (s *Server) rollup() (map[string]any, bool) { return nil, true }
func (s *Server) writeRollup(io.Writer)          {}

func (s *Server) writeTrace(w http.ResponseWriter, _ *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/json")
	j.tracer.WriteChromeTrace(w) // headers are gone on failure; nothing left to do
}

// handleCacheLookup serves GET /v1/cache/{key}: the lookup-only peer
// endpoint answering the raw JSON of a locally cached or persisted
// result. It never computes and never forwards — a miss is a plain
// 404 — so peer lookups cannot cascade across the cluster.
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if v, ok := s.cache.get(key); ok {
		if rep, isReport := v.(*core.Report); isReport {
			v = rep.Clone() // never hand out the cached report itself
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
