// Command vpgad serves the VPGA flow engine over HTTP/JSON: flow runs,
// the Table 1/2 matrix, and the exploration sweeps, all behind a
// content-addressed report cache (an identical request is answered from
// the cache with a byte-identical report, without re-running the flow).
//
// Endpoints:
//
//	POST /v1/runs               one flow run (core.FlowRequest JSON)
//	POST /v1/matrix             the Table 1/2 benchmark matrix
//	POST /v1/sweeps/granularity the PLB-granularity sweep
//	POST /v1/sweeps/routing     the routing-capacity sweep
//	GET  /v1/runs/{id}          job status / result (alias: /v1/jobs/{id})
//	GET  /v1/runs/{id}/trace    Chrome trace-event JSON of the job
//	GET  /v1/runs/{id}/events   live SSE stream of the job's telemetry
//	GET  /v1/jobs/{id}/trace    on a coordinator: the merged cluster-wide trace
//	GET  /v1/cluster/status     on a coordinator: live per-node scheduling stats
//	GET  /healthz               liveness + queue stats
//	GET  /metrics               Prometheus text metrics + latency histograms
//
// -ledger appends one QoR record per completed run (and per matrix
// cell) to a JSONL run ledger — the same format `vpgaflow qor diff`
// gates against the committed baseline.
//
// -data makes the daemon crash-safe: it opens a durable job journal
// (journal.wal) and a persistent artifact store (artifacts/) under the
// directory. Accepted jobs survive a SIGKILL — on restart the journal
// replays and incomplete jobs re-enqueue under their original IDs —
// and completed results are served from the store across restarts.
// The store also backs the stage-granular build cache: every flow run
// persists its per-stage artifacts (mapped netlist, compacted netlist,
// placement, packed array, routing) content-addressed by stage key,
// and later runs sharing a key-chain prefix — a sweep re-routing one
// placement, a clock retarget, flow a after flow b — restore the
// prefix instead of recomputing it. /metrics exposes per-stage
// vpgad_stage_cache_{hits,misses}_total counters and job status JSON
// carries the request's stage_keys chain.
//
// -faults arms the deterministic fault-injection harness (same spec
// as the VPGA_FAULTS environment variable; the flag wins), e.g.
// "seed=7,rate=0.02,kinds=errwrite+torn,points=journal.append".
//
// -log-level and -log-format control structured logging (log/slog on
// stderr): every job lifecycle line carries job_id, kind, trace_id and
// — on workers given -node — the node, so one grep over the fleet's
// logs by trace ID reconstructs a distributed job. -debug-addr serves
// net/http/pprof on a separate opt-in listener for live profiling.
//
// POST endpoints accept ?wait=1 to block until the job finishes;
// without it they return 202 with a job id to poll. A full queue
// answers 429 with Retry-After. SIGINT/SIGTERM drain gracefully:
// running jobs finish (up to -drain), new work is refused with 503.
//
// Cluster mode: -coordinator turns the daemon into a coordinator over
// the worker nodes listed in -workers (comma-separated base URLs). The
// coordinator consistent-hashes content addresses across the fleet,
// splits matrices and granularity sweeps into per-cell tickets with
// work stealing, and serves POST /v1/batch with priorities and
// per-tenant fairness. It runs the worker's job engine, so it journals
// accepted jobs under -data (a restarted coordinator replays them under
// their original IDs) and honours -job-timeout and -ledger. -queue is
// worker-only: a coordinator starts every accepted job at once, because
// its ticket scheduler is its queue. Worker nodes given -node (their
// own base URL) and -peers (every node's base URL) add the peer-cache
// tier: a key owned by another node is looked up there once before
// computing; both flags are worker-only too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vpga/internal/faultinject"
	"vpga/internal/obs"
	"vpga/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	workers := flag.String("workers", "", "worker mode: flow worker pool size (0 = all cores); coordinator mode: comma-separated worker base URLs")
	coordinator := flag.Bool("coordinator", false, "serve as cluster coordinator over the -workers node list instead of running flows locally")
	node := flag.String("node", "", "this node's own base URL (with -peers, enables the worker peer-cache tier)")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster node (worker peer-cache ring)")
	queue := flag.Int("queue", 0, "worker job queue depth (0 = 2x workers); a full queue answers 429")
	cacheSize := flag.Int("cache", 256, "content-addressed report cache capacity (entries)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock budget (0 = none)")
	jobsKeep := flag.Int("jobs-keep", 64, "completed job records (and traces) retained for polling")
	ledger := flag.String("ledger", "", "append a QoR record per completed run/matrix cell to this JSONL ledger")
	drain := flag.Duration("drain", 2*time.Minute, "graceful-shutdown budget for in-flight jobs")
	dataDir := flag.String("data", "", "durable state directory (job journal + artifact store); empty = in-memory only")
	faults := flag.String("faults", "", "fault-injection spec (overrides "+faultinject.EnvVar+"), e.g. seed=7,rate=0.02,kinds=errwrite+torn")
	logLevel := flag.String("log-level", "info", "structured-log threshold: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "structured-log encoding: text or json")
	debugAddr := flag.String("debug-addr", "", "opt-in live-profiling listener serving net/http/pprof (e.g. localhost:6060); empty = disabled")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatalf("%v", err)
	}

	if *faults != "" {
		inj, err := faultinject.ParseSpec(*faults)
		if err != nil {
			fatalf("-faults: %v", err)
		}
		faultinject.Enable(inj)
	} else if inj, err := faultinject.FromEnv(); err != nil {
		fatalf("%s: %v", faultinject.EnvVar, err)
	} else if inj != nil {
		faultinject.Enable(inj)
	}

	type drainable interface {
		http.Handler
		Shutdown(context.Context) error
	}
	var (
		s    drainable
		role = "worker"
	)
	if *coordinator {
		role = "coordinator"
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "queue", "node", "peers":
				fatalf("-%s is a worker flag; a coordinator has no local queue or peer tier", f.Name)
			}
		})
		nodes := splitURLs(*workers)
		if len(nodes) == 0 {
			fatalf("-coordinator needs worker base URLs in -workers, e.g. -workers http://n1:8080,http://n2:8080")
		}
		s, err = server.NewCoordinator(server.CoordinatorOptions{
			Workers: nodes, CacheSize: *cacheSize, JobsKeep: *jobsKeep,
			JobTimeout: *jobTimeout, LedgerPath: *ledger, DataDir: *dataDir, Logger: logger,
		})
	} else {
		pool := 0
		if *workers != "" {
			if pool, err = strconv.Atoi(*workers); err != nil {
				fatalf("-workers: %q is not a pool size (coordinator mode takes the URL list)", *workers)
			}
		}
		opts := server.Options{
			Workers: pool, QueueDepth: *queue, CacheSize: *cacheSize,
			JobTimeout: *jobTimeout, JobsKeep: *jobsKeep, LedgerPath: *ledger,
			DataDir: *dataDir, Logger: logger, Node: *node,
		}
		if *node != "" && *peers != "" {
			opts.PeerLookup = server.NewPeerLookup(*node, splitURLs(*peers))
		}
		s, err = server.New(opts)
	}
	if err != nil {
		fatalf("%v", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: s}

	// Live profiling rides a separate opt-in listener, so pprof is never
	// reachable through the service port a cluster exposes.
	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "vpgad: %s listening on http://%s\n", role, *addr)

	select {
	case err := <-errc:
		fatalf("%v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Fprintf(os.Stderr, "vpgad: draining (budget %s)\n", *drain)

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the job queue first so /healthz reports draining while
	// in-flight flows finish, then close the HTTP listener.
	if err := s.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "vpgad: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "vpgad: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "vpgad: stopped")
}

// splitURLs parses a comma-separated URL list, dropping empty fields.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vpgad: "+format+"\n", args...)
	os.Exit(1)
}
