package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vpga/internal/cells"
	"vpga/internal/core"
	"vpga/internal/obs"
)

// Coordinator is vpgad's cluster mode: the same public API as a worker
// Server, served by scattering work over N worker nodes instead of a
// local pool. Single runs ship whole to the ring owner of their cache
// key; matrices and granularity sweeps split into per-cell tickets —
// each cell is a pure function of its canonical FlowRequest (see
// core.MatrixPlan / core.SweepPlan), so the merged result is
// byte-identical to a single node's. Tickets queue per home node with
// work stealing; a dead node's queued and in-flight tickets re-shard
// onto the survivors. POST /v1/batch adds job priorities and
// per-tenant fairness so a bulk sweep cannot starve interactive runs.
type Coordinator struct {
	opts  CoordinatorOptions
	mux   *http.ServeMux
	ring  *ring
	nodes map[string]*nodeClient
	order []string // node bases in Options order, for stable rollups
	sched *scheduler
	cache *lru // composite (merged) results; cells live in worker caches
	log   *slog.Logger

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*cjob
	doneOrder []string

	nextID atomic.Int64
	start  time.Time

	reqTotal, completed, failed atomic.Int64
	timeouts                    atomic.Int64
	cacheHits, cacheMisses      atomic.Int64
	tickets, ticketRetries      atomic.Int64
	peerHits, peerMisses        atomic.Int64
	workerCacheHits             atomic.Int64
	steals, reshards            atomic.Int64
	batches                     atomic.Int64
}

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Workers are the worker nodes' base URLs (required, >= 1).
	Workers []string
	// VNodes is the consistent-hash virtual-node count per worker
	// (0 = 64).
	VNodes int
	// NodeConcurrency is the number of tickets in flight per worker
	// node (0 = 4) — roughly the worker's own pool size.
	NodeConcurrency int
	// HealthInterval paces the node health probes (0 = 2s, < 0 = off).
	HealthInterval time.Duration
	// CacheSize bounds the merged-composite result cache (0 = 256).
	CacheSize int
	// JobsKeep bounds retained completed-job records (0 = 64).
	JobsKeep int
	// Logger receives the coordinator's structured log lines (job
	// lifecycle, node liveness, steals, reshards), with job_id /
	// trace_id / tenant attrs. Nil logs nothing.
	Logger *slog.Logger
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.NodeConcurrency <= 0 {
		o.NodeConcurrency = 4
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 256
	}
	if o.JobsKeep <= 0 {
		o.JobsKeep = 64
	}
	return o
}

// NewCoordinator starts a coordinator over the worker fleet; stop it
// with Shutdown.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, errors.New("coordinator needs at least one worker node")
	}
	ctx, cancel := context.WithCancel(context.Background())
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	c := &Coordinator{
		opts:    opts,
		mux:     http.NewServeMux(),
		nodes:   make(map[string]*nodeClient, len(opts.Workers)),
		cache:   newLRU(opts.CacheSize),
		log:     log,
		jobs:    make(map[string]*cjob),
		baseCtx: ctx,
		cancel:  cancel,
		start:   time.Now(),
	}
	for _, w := range opts.Workers {
		n := newNodeClient(w)
		if _, dup := c.nodes[n.base]; dup {
			cancel()
			return nil, fmt.Errorf("duplicate worker node %q", n.base)
		}
		c.nodes[n.base] = n
		c.order = append(c.order, n.base)
	}
	c.ring = newRing(c.order, opts.VNodes)
	c.sched = newScheduler(opts.NodeConcurrency)

	c.mux.HandleFunc("POST /v1/runs", c.handleRun)
	c.mux.HandleFunc("POST /v1/matrix", c.handleMatrix)
	c.mux.HandleFunc("POST /v1/sweeps/granularity", c.handleGranularitySweep)
	c.mux.HandleFunc("POST /v1/sweeps/routing", c.handleRoutingSweep)
	c.mux.HandleFunc("POST /v1/batch", c.handleBatch)
	c.mux.HandleFunc("GET /v1/runs/{id}", c.handleStatus)
	c.mux.HandleFunc("GET /v1/runs/{id}/trace", c.handleJobTrace)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	c.mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleJobTrace)
	c.mux.HandleFunc("GET /v1/cluster/status", c.handleClusterStatus)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)

	for _, base := range c.order {
		n := c.nodes[base]
		for i := 0; i < opts.NodeConcurrency; i++ {
			c.wg.Add(1)
			go c.runner(n)
		}
	}
	if opts.HealthInterval > 0 {
		c.wg.Add(1)
		go c.healthLoop()
	}
	return c, nil
}

// ServeHTTP implements http.Handler. Every request gets an
// X-Request-ID (echoed from the client or minted) before dispatch, so
// error envelopes and log lines are correlatable with client retries.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.reqTotal.Add(1)
	rid := ensureRequestID(w, r)
	c.log.Debug("http request", "method", r.Method, "path", r.URL.Path, "request_id", rid)
	c.mux.ServeHTTP(w, r)
}

// Shutdown stops the coordinator: queued tickets fail fast, in-flight
// worker requests are cancelled, and the runner pool drains.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.cancel()
	c.sched.close()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---------------------------------------------------------------------------
// Ticket scheduling: per-node queues, priority + tenant fairness,
// work stealing.

// ticket is one unit of shipped work: the canonical body POSTed to a
// worker endpoint, plus the scheduling coordinates (home node from the
// ring, priority and tenant from the originating job).
type ticket struct {
	seq      int64
	priority int
	tenant   string
	kind     string
	name     string // display label on the merged trace ("alu/lut-plb/flow b")
	path     string // worker endpoint ("/v1/runs", "/v1/sweeps/routing")
	key      string // content address; routes the ticket on the ring
	body     []byte
	home     string
	attempts int
	backoff  time.Duration // cumulative backpressure wait

	// Distributed-trace context: the owning job's trace ID rides the
	// X-Vpga-Trace header to the worker, and the jobTrace records the
	// ticket's dispatch window, steals and reshards. Both may be empty/
	// nil (trace-free tickets cost nothing).
	traceID string
	trace   *jobTrace
	stolen  bool

	once sync.Once
	res  chan ticketOutcome
}

// traceHeaderValue renders the X-Vpga-Trace header for this ticket's
// worker dispatch: the job's trace ID with the ticket name as the
// parent span ("" when the job is untraced).
func (t *ticket) traceHeaderValue() string {
	if t.traceID == "" {
		return ""
	}
	return t.traceID + ":" + t.name
}

type ticketOutcome struct {
	env *rawEnvelope
	err error
}

// deliver resolves the ticket exactly once.
func (t *ticket) deliver(out ticketOutcome) {
	t.once.Do(func() { t.res <- out })
}

// scheduler holds the per-node ticket queues. Queue discipline within
// a node: highest priority first; ties go to the tenant served least
// recently (so equal-priority tenants round-robin instead of one bulk
// submitter draining the node); final tie is FIFO. A runner whose own
// queue is empty steals from the longest queue — which is also how a
// dead node's leftover tickets drain after a re-shard.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]*ticket
	served  map[string]int64 // tenant -> serve sequence of its last pick
	active  map[string]int   // node -> tickets its runners are executing
	lanes   int              // runner lanes per node (steal threshold)
	serveSq int64
	nextSeq int64
	closed  bool
}

func newScheduler(lanes int) *scheduler {
	if lanes < 1 {
		lanes = 1
	}
	sc := &scheduler{
		queues: map[string][]*ticket{},
		served: map[string]int64{},
		active: map[string]int{},
		lanes:  lanes,
	}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// enqueue queues the ticket on its home node; false when the
// scheduler is closed (the caller fails the ticket).
func (sc *scheduler) enqueue(t *ticket) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return false
	}
	if t.seq == 0 {
		sc.nextSeq++
		t.seq = sc.nextSeq
	}
	sc.queues[t.home] = append(sc.queues[t.home], t)
	sc.cond.Broadcast()
	return true
}

func (sc *scheduler) close() {
	sc.mu.Lock()
	sc.closed = true
	// Fail everything still queued so composite jobs unwind instead of
	// waiting on tickets no runner will ever pick up.
	for node, q := range sc.queues {
		for _, t := range q {
			t.deliver(ticketOutcome{err: errors.New("coordinator shutting down")})
		}
		delete(sc.queues, node)
	}
	sc.mu.Unlock()
	sc.cond.Broadcast()
}

// next blocks until a ticket is available for the node's runner (own
// queue first, then stealing) or the scheduler closes (nil). A down
// node's runners park instead of pulling work.
func (sc *scheduler) next(node string, down func() bool) (t *ticket, stolen bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for {
		if sc.closed {
			return nil, false
		}
		if !down() {
			if t := sc.popBest(node); t != nil {
				sc.active[node]++
				return t, false
			}
			// Steal from the longest other queue — but only where it
			// helps: a backlog the victim can't serve promptly (≥ 2
			// queued, or every victim lane already busy). A lone ticket
			// on an idle live node is left to its home runner; stealing
			// it would trade shard/cache locality for nothing, and the
			// re-run of a cached sweep then recomputes cells whose
			// results live on the ring owner.
			victim, max := "", 0
			for other, q := range sc.queues {
				if other == node || len(q) == 0 {
					continue
				}
				if len(q) < 2 && sc.active[other] < sc.lanes {
					continue
				}
				if len(q) > max {
					victim, max = other, len(q)
				}
			}
			if victim != "" {
				sc.active[node]++
				return sc.popBest(victim), true
			}
		}
		sc.cond.Wait()
	}
}

// popBest removes and returns the node queue's best ticket per the
// queue discipline (nil when empty). Callers hold sc.mu.
func (sc *scheduler) popBest(node string) *ticket {
	q := sc.queues[node]
	if len(q) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(q); i++ {
		a, b := q[i], q[best]
		switch {
		case a.priority != b.priority:
			if a.priority > b.priority {
				best = i
			}
		case sc.served[a.tenant] != sc.served[b.tenant]:
			if sc.served[a.tenant] < sc.served[b.tenant] {
				best = i
			}
		case a.seq < b.seq:
			best = i
		}
	}
	t := q[best]
	sc.queues[node] = append(q[:best], q[best+1:]...)
	sc.serveSq++
	sc.served[t.tenant] = sc.serveSq
	return t
}

// requeue moves every ticket queued on a (dead) node to the home the
// rehome function assigns; tickets with no possible home fail. It
// returns how many tickets moved.
func (sc *scheduler) requeue(from string, rehome func(*ticket) string) int {
	sc.mu.Lock()
	q := sc.queues[from]
	delete(sc.queues, from)
	moved := 0
	for _, t := range q {
		home := rehome(t)
		if home == "" {
			t.deliver(ticketOutcome{err: errors.New("no live worker nodes")})
			continue
		}
		t.home = home
		sc.queues[home] = append(sc.queues[home], t)
		moved++
	}
	sc.mu.Unlock()
	sc.cond.Broadcast()
	return moved
}

func (sc *scheduler) depth(node string) int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.queues[node])
}

// inflight is the number of tickets the node's runners are executing
// right now.
func (sc *scheduler) inflight(node string) int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.active[node]
}

// runner is one ticket-execution lane against one worker node.
func (c *Coordinator) runner(n *nodeClient) {
	defer c.wg.Done()
	for {
		t, stolen := c.sched.next(n.base, n.down.Load)
		if t == nil {
			return
		}
		if stolen {
			c.steals.Add(1)
			t.stolen = true
			t.trace.instant("steal", map[string]any{"ticket": t.name, "to": n.base, "from": t.home})
			c.log.Debug("ticket stolen", "ticket_id", t.name, "from", t.home, "to", n.base, "trace_id", t.traceID)
		}
		c.execute(n, t)
		c.sched.release(n.base)
	}
}

// release marks one of the node's runner lanes idle again, re-opening
// the lone-ticket steal guard for queues homed there.
func (sc *scheduler) release(node string) {
	sc.mu.Lock()
	if sc.active[node] > 0 {
		sc.active[node]--
	}
	sc.mu.Unlock()
	sc.cond.Broadcast()
}

// maxTicketAttempts bounds re-shard cycles per ticket: a ticket gets a
// few tries beyond visiting every node once. Backpressure (429) does
// not count against it — that is budgeted by wall clock instead.
func (c *Coordinator) maxTicketAttempts() int { return len(c.nodes) + 4 }

// Backpressure budget: each 429 pauses for the worker's Retry-After
// hint clamped to [100ms, maxBackpressurePause]; a ticket fails only
// after maxBackpressureWait of cumulative waiting.
const (
	maxBackpressurePause = 5 * time.Second
	maxBackpressureWait  = 5 * time.Minute
)

// execute ships one ticket to the node and classifies the outcome. A
// transport failure presumes the node dead: it is marked down (its
// queue re-shards onto the survivors) and the in-flight ticket is
// resubmitted to its new ring owner — the recompute is safe because
// every ticket is a pure, deterministic function of its body.
func (c *Coordinator) execute(n *nodeClient, t *ticket) {
	n.dispatched.Add(1)
	dispatchAt := t.trace.since()
	// record stamps the attempt's window onto the job trace (no-op on
	// untraced tickets): which node ran it, the worker job ID holding
	// its trace fragment, and how the attempt ended.
	record := func(workerJob string, cached bool, errMsg string) {
		t.trace.ticket(ticketRecord{
			name: t.name, node: n.base, workerJob: workerJob,
			start: dispatchAt, end: t.trace.since(),
			cached: cached, stolen: t.stolen, attempts: t.attempts, err: errMsg,
		})
	}
	env, status, err := n.post(c.baseCtx, t.path+"?wait=1", t.body, t.traceHeaderValue())
	if err != nil {
		n.errs.Add(1)
		if c.baseCtx.Err() != nil {
			t.deliver(ticketOutcome{err: err})
			return
		}
		record("", false, err.Error())
		c.markDown(n)
		c.resubmit(t, err)
		return
	}
	switch status {
	case http.StatusTooManyRequests:
		// Worker backpressure: pause for the worker's Retry-After hint
		// (clamped so a deep-backlog hint cannot pin a steal-able ticket
		// for long), then back on the queue — any runner, including a
		// less loaded node's, may steal it. A 429 means the cluster is
		// busy, not broken, so it spends a wall-clock budget rather than
		// the attempt bound that node deaths share: a lone survivor
		// grinding through a re-sharded matrix keeps answering 429 far
		// longer than len(nodes)+4 polls.
		c.ticketRetries.Add(1)
		pause := 100 * time.Millisecond
		if env.RetryAfter > pause {
			pause = env.RetryAfter
		}
		if pause > maxBackpressurePause {
			pause = maxBackpressurePause
		}
		t.backoff += pause
		if t.backoff > maxBackpressureWait {
			t.deliver(ticketOutcome{err: fmt.Errorf("ticket rejected by backpressure for %s", t.backoff)})
			return
		}
		time.AfterFunc(pause, func() {
			if !c.sched.enqueue(t) {
				t.deliver(ticketOutcome{err: errors.New("coordinator shutting down")})
			}
		})
	case http.StatusServiceUnavailable:
		record("", false, "node draining")
		c.markDown(n)
		c.resubmit(t, errors.New("node draining"))
	case http.StatusOK, http.StatusAccepted:
		workerJob := env.ID
		env = c.awaitTerminal(n, t, env)
		if env == nil {
			record(workerJob, false, "attempt ended before a terminal status")
			return // resubmitted (or delivered a poll failure)
		}
		if env.ErrorKind == "timeout" {
			// Satellite of isTimeout: a timeout on a remote worker still
			// counts on the coordinator's vpgad_jobs_timeout_total.
			c.timeouts.Add(1)
		}
		if env.Cached {
			c.workerCacheHits.Add(1)
		}
		record(env.ID, env.Cached, env.Error)
		t.deliver(ticketOutcome{env: env})
	default:
		msg := env.Error
		if msg == "" {
			msg = fmt.Sprintf("worker answered HTTP %d", status)
		}
		record(env.ID, false, msg)
		t.deliver(ticketOutcome{env: env, err: errors.New(msg)})
	}
}

// awaitTerminal polls the worker's status endpoint when a ?wait=1
// submission still came back non-terminal (e.g. the worker bounded the
// wait). Returns nil after resubmitting on a mid-poll node death.
func (c *Coordinator) awaitTerminal(n *nodeClient, t *ticket, env *rawEnvelope) *rawEnvelope {
	for env.Status == "queued" || env.Status == "running" {
		select {
		case <-c.baseCtx.Done():
			t.deliver(ticketOutcome{err: c.baseCtx.Err()})
			return nil
		case <-time.After(50 * time.Millisecond):
		}
		req, err := http.NewRequestWithContext(c.baseCtx, http.MethodGet, n.base+"/v1/runs/"+env.ID, nil)
		if err != nil {
			t.deliver(ticketOutcome{err: err})
			return nil
		}
		resp, err := n.hc.Do(req)
		if err != nil {
			n.errs.Add(1)
			c.markDown(n)
			c.resubmit(t, err)
			return nil
		}
		var next rawEnvelope
		err = json.NewDecoder(resp.Body).Decode(&next)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.deliver(ticketOutcome{err: fmt.Errorf("polling %s on %s: HTTP %d, %v", env.ID, n.base, resp.StatusCode, err)})
			return nil
		}
		env = &next
	}
	return env
}

// resubmit re-homes a ticket after its node died (the re-shard path).
func (c *Coordinator) resubmit(t *ticket, cause error) {
	t.attempts++
	if t.attempts >= c.maxTicketAttempts() {
		t.deliver(ticketOutcome{err: fmt.Errorf("ticket failed after %d attempts: %w", t.attempts, cause)})
		return
	}
	home := c.ring.owner(t.routeKey())
	if home == "" {
		t.deliver(ticketOutcome{err: fmt.Errorf("no live worker nodes: %w", cause)})
		return
	}
	c.reshards.Add(1)
	t.trace.instant("reshard", map[string]any{"ticket": t.name, "to": home, "attempts": t.attempts})
	c.log.Info("ticket resharded", "ticket_id", t.name, "to", home, "attempts", t.attempts,
		"trace_id", t.traceID, "cause", cause.Error())
	t.home = home
	if !c.sched.enqueue(t) {
		t.deliver(ticketOutcome{err: errors.New("coordinator shutting down")})
	}
}

// routeKey is what places the ticket on the ring: its content address,
// or the body itself for the (never expected) uncacheable case.
func (t *ticket) routeKey() string {
	if t.key != "" {
		return t.key
	}
	return string(t.body)
}

// markDown takes a node out of the ring and re-shards its queued
// tickets onto the survivors. Idempotent; the health loop brings the
// node back when it answers again.
func (c *Coordinator) markDown(n *nodeClient) {
	if n.down.Swap(true) {
		return
	}
	c.ring.setLive(n.base, false)
	moved := c.sched.requeue(n.base, func(t *ticket) string {
		home := c.ring.owner(t.routeKey())
		if home != "" {
			t.trace.instant("reshard", map[string]any{"ticket": t.name, "from": n.base, "to": home})
		}
		return home
	})
	c.reshards.Add(int64(moved))
	c.log.Warn("node down", "node", n.base, "resharded_tickets", moved)
}

func (c *Coordinator) markUp(n *nodeClient) {
	if !n.down.Swap(false) {
		return
	}
	c.ring.setLive(n.base, true)
	c.sched.cond.Broadcast() // wake the node's parked runners
	c.log.Info("node up", "node", n.base)
}

// healthLoop probes every node and flips ring membership as nodes die
// and come back.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-tick.C:
		}
		for _, base := range c.order {
			n := c.nodes[base]
			ctx, cancel := context.WithTimeout(c.baseCtx, c.opts.HealthInterval)
			ok := n.healthy(ctx)
			cancel()
			if ok {
				c.markUp(n)
			} else if !n.down.Load() {
				c.markDown(n)
			}
		}
	}
}

// runTicket is the blocking ticket helper composite jobs use: peer
// cache lookup on the key's owner first — a result the cluster already
// computed is fetched, not recomputed — then enqueue and wait. The
// owning job supplies the scheduling coordinates (priority, tenant)
// and the trace context; name labels the ticket on the merged
// timeline.
func (c *Coordinator) runTicket(j *cjob, name, kind, path string, body any, key string) (*rawEnvelope, error) {
	enc, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	c.tickets.Add(1)
	if key != "" {
		if owner := c.ring.owner(key); owner != "" {
			if n := c.nodes[owner]; n != nil && !n.down.Load() {
				start := j.trace.since()
				ctx, cancel := context.WithTimeout(c.baseCtx, 5*time.Second)
				raw, ok := n.cacheGet(ctx, key)
				cancel()
				if ok {
					c.peerHits.Add(1)
					j.trace.ticket(ticketRecord{
						name: name, node: owner, start: start, end: j.trace.since(), cached: true,
					})
					return &rawEnvelope{Kind: kind, Status: "done", Cached: true, Key: key, Result: raw}, nil
				}
			}
		}
		c.peerMisses.Add(1)
	}
	t := &ticket{
		priority: j.priority, tenant: j.tenant, kind: kind, name: name, path: path,
		key: key, body: enc, traceID: j.traceID, trace: j.trace,
		res: make(chan ticketOutcome, 1),
	}
	t.home = c.ring.owner(t.routeKey())
	if t.home == "" {
		return nil, errors.New("no live worker nodes")
	}
	if !c.sched.enqueue(t) {
		return nil, errors.New("coordinator shutting down")
	}
	select {
	case out := <-t.res:
		return out.env, out.err
	case <-c.baseCtx.Done():
		return nil, c.baseCtx.Err()
	}
}

// ---------------------------------------------------------------------------
// Coordinator jobs (client-visible composites).

// cjob is one client-visible coordinator job: a forwarded run or a
// split composite, tracked under a coordinator-scoped ID.
type cjob struct {
	id       string
	kind     string
	key      string
	priority int
	tenant   string
	created  time.Time
	done     chan struct{}

	// Distributed trace: the coordinator-minted trace ID every ticket
	// of this job carries, and the recorder behind GET
	// /v1/jobs/{id}/trace.
	traceID string
	trace   *jobTrace

	mu      sync.Mutex
	status  string
	cached  bool
	result  any
	errMsg  string
	stage   string
	errKind string
}

func (j *cjob) response() jobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobResponse{
		ID: j.id, Kind: j.kind, Status: j.status, Cached: j.cached, Key: j.key,
		Result: j.result, Error: j.errMsg, Stage: j.stage, ErrorKind: j.errKind,
		TraceID: j.traceID,
	}
}

func (j *cjob) finish(result any, cached bool) {
	j.mu.Lock()
	j.status = "done"
	j.result = result
	j.cached = cached
	j.mu.Unlock()
	close(j.done)
}

func (j *cjob) fail(msg, stage, errKind string) {
	j.mu.Lock()
	j.status = "failed"
	j.errMsg = msg
	j.stage = stage
	j.errKind = errKind
	j.mu.Unlock()
	close(j.done)
}

// startJob registers a cjob — minting its distributed trace ID and
// recorder — and runs its composite on a goroutine.
func (c *Coordinator) startJob(kind, key string, priority int, tenant string, run func(j *cjob)) *cjob {
	traceID := newTraceID()
	j := &cjob{
		id: fmt.Sprintf("c%06d", c.nextID.Add(1)), kind: kind, key: key,
		priority: priority, tenant: tenant, created: time.Now(),
		traceID: traceID, trace: newJobTrace(traceID),
		done: make(chan struct{}), status: "queued",
	}
	c.mu.Lock()
	c.jobs[j.id] = j
	c.mu.Unlock()
	c.log.Info("job accepted", "job_id", j.id, "kind", kind, "trace_id", traceID,
		"tenant", tenant, "priority", priority)
	go func() {
		j.mu.Lock()
		j.status = "running"
		j.mu.Unlock()
		endJob := j.trace.span("job "+kind, map[string]any{"job_id": j.id})
		run(j)
		endJob()
		j.mu.Lock()
		failed := j.status == "failed"
		errMsg := j.errMsg
		j.mu.Unlock()
		if failed {
			c.failed.Add(1)
			c.log.Warn("job failed", "job_id", j.id, "kind", kind, "trace_id", traceID,
				"error", errMsg, "duration", time.Since(j.created))
		} else {
			c.completed.Add(1)
			c.log.Info("job done", "job_id", j.id, "kind", kind, "trace_id", traceID,
				"duration", time.Since(j.created))
		}
		c.retireJob(j)
	}()
	return j
}

func (c *Coordinator) retireJob(j *cjob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.doneOrder = append(c.doneOrder, j.id)
	for len(c.doneOrder) > c.opts.JobsKeep {
		old := c.doneOrder[0]
		c.doneOrder = c.doneOrder[1:]
		delete(c.jobs, old)
	}
}

// finishFromEnvelope resolves a forwarded job from a worker envelope.
func (j *cjob) finishFromEnvelope(env *rawEnvelope, err error) {
	if err != nil {
		j.fail(err.Error(), "", "")
		return
	}
	if env.Status == "failed" {
		j.fail(env.Error, env.Stage, env.ErrorKind)
		return
	}
	j.finish(env.Result, env.Cached)
}

// respondCJob mirrors respondJob for coordinator jobs (?wait=1 blocks).
func respondCJob(w http.ResponseWriter, r *http.Request, j *cjob) {
	if wantWait(r) {
		select {
		case <-j.done:
		case <-r.Context().Done():
		}
	}
	resp := j.response()
	status := http.StatusAccepted
	if resp.Status == "done" || resp.Status == "failed" {
		status = http.StatusOK
	}
	writeJSON(w, status, resp)
}

// ---------------------------------------------------------------------------
// Submission endpoints.

// handleRun forwards one flow run to the ring owner of its key.
func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	var req core.FlowRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c.submitRun(w, r, req, 0, "")
}

func (c *Coordinator) submitRun(w http.ResponseWriter, r *http.Request, req core.FlowRequest, priority int, tenant string) *cjob {
	key, err := req.CacheKey()
	if err != nil {
		if w != nil {
			writeError(w, http.StatusBadRequest, err)
		}
		return nil
	}
	j := c.startJob("run", key, priority, tenant, func(j *cjob) {
		env, err := c.runTicket(j, req.TicketLabel(), "run", "/v1/runs", req, key)
		j.finishFromEnvelope(env, err)
	})
	if w != nil {
		respondCJob(w, r, j)
	}
	return j
}

// handleMatrix splits the matrix into per-cell tickets and merges a
// byte-identical MatrixResult.
func (c *Coordinator) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c.submitMatrix(w, r, req, 0, "")
}

func (c *Coordinator) submitMatrix(w http.ResponseWriter, r *http.Request, req MatrixRequest, priority int, tenant string) *cjob {
	if err := req.validate(); err != nil {
		if w != nil {
			writeError(w, http.StatusBadRequest, err)
		}
		return nil
	}
	key, err := req.cacheKey()
	if err != nil {
		if w != nil {
			writeError(w, http.StatusBadRequest, err)
		}
		return nil
	}
	if v, ok := c.cache.get(key); ok {
		c.cacheHits.Add(1)
		j := c.startJob("matrix", key, priority, tenant, func(j *cjob) { j.finish(v, true) })
		if w != nil {
			respondCJob(w, r, j)
		}
		return j
	}
	c.cacheMisses.Add(1)
	j := c.startJob("matrix", key, priority, tenant, func(j *cjob) { c.runMatrixJob(j, req) })
	if w != nil {
		respondCJob(w, r, j)
	}
	return j
}

// runMatrixJob executes a matrix through core.ExecuteMatrix with a
// ticket runner — per design the clock-pinning cell first, then its
// three dependents at once, pinned to the derived clock — so pinning,
// the ledger, the returned error and the merged MatrixResult are the
// ones a single node computes.
func (c *Coordinator) runMatrixJob(j *cjob, req MatrixRequest) {
	n := req.normalize()
	designs := req.suite().All()
	designReqs := core.MatrixDesignNames()
	plan := core.MatrixPlan{
		Scale: n.Scale, Seed: n.Seed, PlaceEffort: n.PlaceEffort,
		DefectRate: n.DefectRate, DefectSeed: n.DefectSeed, RepairBudget: n.RepairBudget,
	}
	tickets := c.cellRunner(j, func(cell core.Cell) (core.FlowRequest, string) {
		return plan.Ticket(designReqs[cell.Design], cell), core.MatrixCellLabel(designs[cell.Design].Name, cell)
	})
	m, err := core.ExecuteMatrix(c.baseCtx, designs, tickets, n.ContinueOnError, nil)
	endMerge := j.trace.span("merge", map[string]any{"cells": len(designs) * 4})
	defer endMerge()
	if err != nil {
		j.fail(failure(err))
		return
	}
	res := matrixResult(m)
	if len(res.Errors) == 0 {
		c.cache.put(j.key, res)
	}
	j.finish(res, false)
}

// cellRunner is the coordinator's core.CellRunner: each cell is a
// ticket of its own, so a composite's dependent cells go out at once —
// workers keep no stage tier a chain of cells could share. ticket
// builds a cell's request and label. A failed ticket comes back as the
// *core.FlowError the worker rendered, at the coordinates its request
// resolves to, so it is ledgered exactly as a single node ledgers it.
func (c *Coordinator) cellRunner(j *cjob, ticket func(core.Cell) (core.FlowRequest, string)) core.CellRunner {
	run := func(cell core.Cell) (*core.Report, error) {
		req, label := ticket(cell)
		env, err := c.runTicket(j, label, "run", "/v1/runs", req, mustKey(req))
		switch {
		case err != nil:
			return nil, err
		case env.Status == "failed":
			d, cfg, err := req.Resolve()
			if err != nil {
				return nil, err
			}
			return nil, core.ParseFlowError(d.Name, cfg.Arch.Name, cfg.Flow.String(), env.Stage, env.Error)
		}
		rep := &core.Report{}
		if err := json.Unmarshal(env.Result, rep); err != nil {
			return nil, fmt.Errorf("decoding cell report: %w", err)
		}
		return rep, nil
	}
	return core.CellRunner{Lane: func(body func(core.CellFunc)) { body(run) }}
}

// mustKey content-addresses an already-normalized cell request; cells
// are canonical by construction, so this cannot fail at runtime.
func mustKey(req core.FlowRequest) string {
	key, err := req.CacheKey()
	if err != nil {
		panic(fmt.Sprintf("server: matrix cell has no content address: %v", err))
	}
	return key
}

// handleGranularitySweep splits the sweep into per-architecture
// tickets (first arch pins the clock) and merges the points.
func (c *Coordinator) handleGranularitySweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c.submitGranularitySweep(w, r, req, 0, "")
}

func (c *Coordinator) submitGranularitySweep(w http.ResponseWriter, r *http.Request, req SweepRequest, priority int, tenant string) *cjob {
	bad := func(err error) *cjob {
		if w != nil {
			writeError(w, http.StatusBadRequest, err)
		}
		return nil
	}
	if _, err := req.resolveDesign(); err != nil {
		return bad(err)
	}
	n := req.normalize()
	specs := n.Archs
	if len(specs) == 0 {
		specs = core.DefaultSweepArchSpecs()
	}
	archs := make([]*cells.PLBArch, len(specs))
	for i, spec := range specs {
		arch, err := spec.Resolve()
		if err != nil {
			return bad(err)
		}
		archs[i] = arch
	}
	key, err := req.cacheKey("sweep/granularity")
	if err != nil {
		return bad(err)
	}
	if v, ok := c.cache.get(key); ok {
		c.cacheHits.Add(1)
		j := c.startJob("sweep/granularity", key, priority, tenant, func(j *cjob) { j.finish(v, true) })
		if w != nil {
			respondCJob(w, r, j)
		}
		return j
	}
	c.cacheMisses.Add(1)
	plan := core.SweepPlan{
		Design: n.Design, Scale: n.Scale, RTL: n.RTL, Name: n.Name,
		Seed: n.Seed, Archs: specs,
	}
	j := c.startJob("sweep/granularity", key, priority, tenant, func(j *cjob) { c.runSweepJob(j, plan, archs) })
	if w != nil {
		respondCJob(w, r, j)
	}
	return j
}

// runSweepJob executes a granularity sweep through core.ExecuteSweep
// with a ticket runner — the first architecture pins the clock, the
// rest run pinned at once — so the points and the failure match
// RunGranularitySweep's.
func (c *Coordinator) runSweepJob(j *cjob, plan core.SweepPlan, archs []*cells.PLBArch) {
	tickets := c.cellRunner(j, func(cell core.Cell) (core.FlowRequest, string) {
		return plan.Ticket(cell), plan.TicketLabel(cell.Arch)
	})
	reps, err := core.ExecuteSweep(archs, tickets)
	if err != nil {
		j.fail(failure(err))
		return
	}
	pts := make([]core.SweepPoint, len(reps))
	for i, rep := range reps {
		pts[i] = core.SweepPointFrom(archs[i], rep)
	}
	c.cache.put(j.key, pts)
	j.finish(pts, false)
}

// handleRoutingSweep forwards the sweep whole: its capacity points
// share one placement, so it is not splittable into pure tickets.
func (c *Coordinator) handleRoutingSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c.submitRoutingSweep(w, r, req, 0, "")
}

func (c *Coordinator) submitRoutingSweep(w http.ResponseWriter, r *http.Request, req SweepRequest, priority int, tenant string) *cjob {
	if _, err := req.resolveDesign(); err != nil {
		if w != nil {
			writeError(w, http.StatusBadRequest, err)
		}
		return nil
	}
	key, err := req.cacheKey("sweep/routing")
	if err != nil {
		if w != nil {
			writeError(w, http.StatusBadRequest, err)
		}
		return nil
	}
	j := c.startJob("sweep/routing", key, priority, tenant, func(j *cjob) {
		name := "sweep/routing/" + req.normalize().Design + req.normalize().Name
		env, err := c.runTicket(j, name, "sweep/routing", "/v1/sweeps/routing", req, key)
		j.finishFromEnvelope(env, err)
	})
	if w != nil {
		respondCJob(w, r, j)
	}
	return j
}

// ---------------------------------------------------------------------------
// POST /v1/batch: bulk submission with priorities and tenant fairness.

// batchItem is one job in a batch: its kind-specific request plus the
// scheduling coordinates. Higher priority runs first; within a
// priority, tenants round-robin (least recently served tenant wins),
// so a 10k-item sweep from one tenant cannot starve another tenant's
// interactive runs.
type batchItem struct {
	Kind     string          `json:"kind"` // "run", "matrix", "sweep/granularity", "sweep/routing"
	Priority int             `json:"priority,omitempty"`
	Tenant   string          `json:"tenant,omitempty"`
	Request  json.RawMessage `json:"request"`
}

type batchRequest struct {
	Jobs []batchItem `json:"jobs"`
}

type batchResponse struct {
	Jobs []jobResponse `json:"jobs"`
}

// handleBatch validates every item, then launches them all (202). An
// invalid item rejects the whole batch before any job starts.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch has no jobs"))
		return
	}
	type launch func() *cjob
	launches := make([]launch, 0, len(req.Jobs))
	for i, item := range req.Jobs {
		item := item
		var (
			err error
			fn  launch
		)
		switch item.Kind {
		case "run":
			var rr core.FlowRequest
			if err = json.Unmarshal(item.Request, &rr); err == nil {
				if _, err = rr.CacheKey(); err == nil {
					fn = func() *cjob { return c.submitRun(nil, nil, rr, item.Priority, item.Tenant) }
				}
			}
		case "matrix":
			var mr MatrixRequest
			if err = json.Unmarshal(item.Request, &mr); err == nil {
				if err = mr.validate(); err == nil {
					fn = func() *cjob { return c.submitMatrix(nil, nil, mr, item.Priority, item.Tenant) }
				}
			}
		case "sweep/granularity":
			var sr SweepRequest
			if err = json.Unmarshal(item.Request, &sr); err == nil {
				if _, err = sr.resolveDesign(); err == nil {
					fn = func() *cjob { return c.submitGranularitySweep(nil, nil, sr, item.Priority, item.Tenant) }
				}
			}
		case "sweep/routing":
			var sr SweepRequest
			if err = json.Unmarshal(item.Request, &sr); err == nil {
				if _, err = sr.resolveDesign(); err == nil {
					fn = func() *cjob { return c.submitRoutingSweep(nil, nil, sr, item.Priority, item.Tenant) }
				}
			}
		default:
			err = fmt.Errorf("unknown job kind %q", item.Kind)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("batch job %d: %w", i, err))
			return
		}
		launches = append(launches, fn)
	}
	c.batches.Add(1)
	resp := batchResponse{Jobs: make([]jobResponse, 0, len(launches))}
	for i, fn := range launches {
		j := fn()
		if j == nil {
			// Validation re-ran inside submit and failed; report the slot.
			resp.Jobs = append(resp.Jobs, jobResponse{Status: "rejected",
				Error: fmt.Sprintf("batch job %d failed validation", i)})
			continue
		}
		resp.Jobs = append(resp.Jobs, j.response())
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// handleStatus serves GET /v1/runs/{id} (and its /v1/jobs/{id} alias)
// for coordinator jobs.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown or evicted job id"))
		return
	}
	writeJSON(w, http.StatusOK, j.response())
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's merged
// cluster-wide Chrome trace — coordinator control spans plus every
// worker node's tickets with their per-stage fragments fetched back
// from the workers that still answer.
func (c *Coordinator) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown or evicted job id"))
		return
	}
	events := c.mergedTrace(r.Context(), j)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(events)
}

// ---------------------------------------------------------------------------
// Cluster rollup observability.

// clusterNodeStat is one node's slice of the rollup.
type clusterNodeStat struct {
	Node             string `json:"node"`
	Up               bool   `json:"up"`
	TicketQueueDepth int    `json:"ticket_queue_depth"`
	InFlightTickets  int    `json:"in_flight_tickets"`
	WorkerQueueDepth int    `json:"worker_queue_depth"`
	WorkerJobs       int64  `json:"worker_jobs_running"`
	Dispatched       int64  `json:"dispatched"`
	Errors           int64  `json:"errors"`
	// StageCache is the worker's per-stage build-cache counters with
	// derived hit ratios, scraped from its /healthz (nil until the
	// first health probe lands or when the worker has no stage cache).
	StageCache map[string]stageCacheRatio `json:"stage_cache,omitempty"`
}

// stageCacheRatio is one stage's scraped cache counters plus the
// derived hit ratio.
type stageCacheRatio struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// stageRatios derives per-stage hit ratios from scraped counters.
func stageRatios(stats core.StageCacheStats) map[string]stageCacheRatio {
	if len(stats) == 0 {
		return nil
	}
	out := make(map[string]stageCacheRatio, len(stats))
	for stage, sc := range stats {
		r := stageCacheRatio{Hits: sc.Hits, Misses: sc.Misses}
		if total := sc.Hits + sc.Misses; total > 0 {
			r.HitRatio = float64(sc.Hits) / float64(total)
		}
		out[stage] = r
	}
	return out
}

func (c *Coordinator) nodeStats() []clusterNodeStat {
	stats := make([]clusterNodeStat, 0, len(c.order))
	for _, base := range c.order {
		n := c.nodes[base]
		h := n.lastHealth()
		stats = append(stats, clusterNodeStat{
			Node: base, Up: !n.down.Load(),
			TicketQueueDepth: c.sched.depth(base),
			InFlightTickets:  c.sched.inflight(base),
			WorkerQueueDepth: h.QueueDepth, WorkerJobs: h.JobsRunning,
			Dispatched: n.dispatched.Load(), Errors: n.errs.Load(),
			StageCache: stageRatios(h.StageCache),
		})
	}
	return stats
}

// peerHitRatio is served-from-cache tickets over all resolved lookups.
func (c *Coordinator) peerHitRatio() float64 {
	hits := c.peerHits.Load() + c.workerCacheHits.Load()
	total := c.tickets.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// handleHealthz serves the cluster rollup.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	nodes := c.nodeStats()
	up := 0
	for _, n := range nodes {
		if n.Up {
			up++
		}
	}
	status, code := "ok", http.StatusOK
	if up == 0 {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"role":           "coordinator",
		"uptime_seconds": time.Since(c.start).Seconds(),
		"nodes":          nodes,
		"nodes_up":       up,
		"cluster": map[string]any{
			"tickets":           c.tickets.Load(),
			"ticket_retries":    c.ticketRetries.Load(),
			"steals":            c.steals.Load(),
			"reshards":          c.reshards.Load(),
			"peer_hits":         c.peerHits.Load(),
			"peer_misses":       c.peerMisses.Load(),
			"worker_cache_hits": c.workerCacheHits.Load(),
			"peer_hit_ratio":    c.peerHitRatio(),
		},
	})
}

// handleClusterStatus serves GET /v1/cluster/status: the live
// scheduling picture `vpgaflow cluster top` renders — per-node queue
// depth, in-flight tickets, steal/reshard counters, and stage-cache
// hit ratios — as one JSON snapshot.
func (c *Coordinator) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	nodes := c.nodeStats()
	up := 0
	for _, n := range nodes {
		if n.Up {
			up++
		}
	}
	c.mu.Lock()
	jobsTracked := len(c.jobs)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"role":           "coordinator",
		"uptime_seconds": time.Since(c.start).Seconds(),
		"nodes":          nodes,
		"nodes_up":       up,
		"jobs_tracked":   jobsTracked,
		"cluster": map[string]any{
			"tickets":           c.tickets.Load(),
			"ticket_retries":    c.ticketRetries.Load(),
			"steals":            c.steals.Load(),
			"reshards":          c.reshards.Load(),
			"peer_hits":         c.peerHits.Load(),
			"peer_misses":       c.peerMisses.Load(),
			"worker_cache_hits": c.workerCacheHits.Load(),
			"peer_hit_ratio":    c.peerHitRatio(),
			"jobs_completed":    c.completed.Load(),
			"jobs_failed":       c.failed.Load(),
		},
	})
}

// handleMetrics serves the coordinator's Prometheus rollup: cluster
// counters, the peer-hit ratio, and one labeled series per node.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("vpgad_requests_total", "HTTP requests received", c.reqTotal.Load())
	counter("vpgad_jobs_completed_total", "coordinator jobs that finished successfully", c.completed.Load())
	counter("vpgad_jobs_failed_total", "coordinator jobs that finished in error", c.failed.Load())
	counter("vpgad_jobs_timeout_total", "jobs that failed on a wall-clock budget, local or on a remote worker", c.timeouts.Load())
	counter("vpgad_cache_hits_total", "composite results served from the coordinator cache", c.cacheHits.Load())
	counter("vpgad_cache_misses_total", "composite submissions that required ticket execution", c.cacheMisses.Load())
	counter("vpgad_batches_total", "batch submissions accepted", c.batches.Load())
	counter("vpgad_cluster_tickets_total", "tickets resolved (peer cache or worker execution)", c.tickets.Load())
	counter("vpgad_cluster_ticket_retries_total", "tickets re-queued on worker backpressure", c.ticketRetries.Load())
	counter("vpgad_cluster_steals_total", "tickets stolen by an idle node's runner", c.steals.Load())
	counter("vpgad_cluster_reshards_total", "tickets re-homed after a node died or drained", c.reshards.Load())
	counter("vpgad_cluster_peer_hits_total", "tickets served from a peer cache before scheduling", c.peerHits.Load())
	counter("vpgad_cluster_peer_misses_total", "peer cache lookups that missed", c.peerMisses.Load())
	counter("vpgad_cluster_worker_cache_hits_total", "tickets the executing worker served from its own cache", c.workerCacheHits.Load())
	nodes := c.nodeStats()
	up := 0
	for _, n := range nodes {
		if n.Up {
			up++
		}
	}
	gauge("vpgad_cluster_nodes", "worker nodes configured", int64(len(nodes)))
	gauge("vpgad_cluster_nodes_up", "worker nodes currently live", int64(up))
	fmt.Fprintf(w, "# HELP vpgad_cluster_peer_hit_ratio fraction of tickets served from peer or worker caches\n# TYPE vpgad_cluster_peer_hit_ratio gauge\nvpgad_cluster_peer_hit_ratio %s\n",
		strconv.FormatFloat(c.peerHitRatio(), 'f', 6, 64))
	fmt.Fprintf(w, "# HELP vpgad_cluster_node_up whether the node answers health probes\n# TYPE vpgad_cluster_node_up gauge\n")
	for _, n := range nodes {
		v := 0
		if n.Up {
			v = 1
		}
		fmt.Fprintf(w, "vpgad_cluster_node_up{node=%q} %d\n", n.Node, v)
	}
	fmt.Fprintf(w, "# HELP vpgad_cluster_node_dispatched_total tickets dispatched to the node\n# TYPE vpgad_cluster_node_dispatched_total counter\n")
	for _, n := range nodes {
		fmt.Fprintf(w, "vpgad_cluster_node_dispatched_total{node=%q} %d\n", n.Node, n.Dispatched)
	}
	fmt.Fprintf(w, "# HELP vpgad_cluster_node_errors_total transport failures talking to the node\n# TYPE vpgad_cluster_node_errors_total counter\n")
	for _, n := range nodes {
		fmt.Fprintf(w, "vpgad_cluster_node_errors_total{node=%q} %d\n", n.Node, n.Errors)
	}
	fmt.Fprintf(w, "# HELP vpgad_cluster_node_queue_depth tickets queued for the node on the coordinator\n# TYPE vpgad_cluster_node_queue_depth gauge\n")
	for _, n := range nodes {
		fmt.Fprintf(w, "vpgad_cluster_node_queue_depth{node=%q} %d\n", n.Node, n.TicketQueueDepth)
	}
	fmt.Fprintf(w, "# HELP vpgad_cluster_node_inflight tickets currently executing on the node\n# TYPE vpgad_cluster_node_inflight gauge\n")
	for _, n := range nodes {
		fmt.Fprintf(w, "vpgad_cluster_node_inflight{node=%q} %d\n", n.Node, n.InFlightTickets)
	}
	fmt.Fprintf(w, "# HELP vpgad_uptime_seconds seconds since the coordinator started\n# TYPE vpgad_uptime_seconds gauge\nvpgad_uptime_seconds %s\n",
		strconv.FormatFloat(time.Since(c.start).Seconds(), 'f', 3, 64))
}
