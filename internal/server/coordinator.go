package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vpga/internal/core"
)

// Coordinator is vpgad's cluster mode: the job engine of a worker
// Server, with an executor that scatters work over N worker nodes
// instead of a local pool. Single runs and routing sweeps ship whole
// to the ring owner of their cache key; matrices and granularity
// sweeps split into per-cell tickets — each cell is a pure function of
// its canonical FlowRequest (see core.MatrixPlan / core.SweepPlan), so
// the merged result is byte-identical to a single node's. Tickets
// queue per home node with work stealing; a dead node's queued and
// in-flight tickets re-shard onto the survivors. POST /v1/batch adds
// job priorities and per-tenant fairness so a bulk sweep cannot starve
// interactive runs. The coordinator caches only what it merges; with
// DataDir set it journals accepted jobs and replays them after a crash.
type Coordinator struct {
	*engine
	opts    CoordinatorOptions
	ring    *ring
	hc      *http.Client // every node client's; Shutdown closes its connections
	nodes   map[string]*nodeClient
	order   []string // node bases in Options order, for stable rollups
	sched   *scheduler
	runners sync.WaitGroup // ticket runners and the health loop
	// ranOn maps the content address of each ticket that completed off
	// its key's ring owner (a steal, or a follower homed on its lane's
	// node) to the node that ran it, so a replay fetches the result
	// there instead of recomputing it; it keeps the 1024 most recently
	// used entries. Ticket runners write it while the jobs' lanes read
	// it.
	ranOn *lru

	tickets, ticketRetries atomic.Int64
	workerCacheHits        atomic.Int64
	steals, reshards       atomic.Int64
	batches                atomic.Int64
}

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Workers are the worker nodes' base URLs (required, >= 1).
	Workers []string
	// NodeConcurrency is the number of tickets in flight per worker
	// node (0 = 4) — roughly the worker's own pool size.
	NodeConcurrency int
	// CacheSize bounds the merged-composite result cache (0 = 256).
	CacheSize int
	// JobsKeep bounds retained completed-job records (0 = 64).
	JobsKeep int
	// JobTimeout bounds each job's wall time (0 = none); an expired
	// job's outstanding tickets are abandoned.
	JobTimeout time.Duration
	// LedgerPath, when set, appends the QoR records of every computed
	// run and matrix result to the JSONL run ledger at that path.
	LedgerPath string
	// DataDir, when set, journals accepted jobs (DataDir/journal.wal) —
	// a restarted coordinator replays them under their original IDs,
	// batch priority and tenant included — and persists merged results
	// in an artifact store (DataDir/artifacts).
	DataDir string
	// Logger receives the coordinator's structured log lines (job
	// lifecycle, node liveness, steals, reshards), with job_id /
	// trace_id / tenant attrs. Nil logs nothing.
	Logger *slog.Logger

	// healthInterval paces the node health probes (0 = 2s, < 0 = off);
	// tests turn probing off to flip liveness through traffic alone.
	healthInterval time.Duration
}

// NewCoordinator starts a coordinator over the worker fleet; stop it
// with Shutdown.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("coordinator needs at least one worker node")
	}
	if opts.NodeConcurrency <= 0 {
		opts.NodeConcurrency = 4
	}
	if opts.healthInterval == 0 {
		opts.healthInterval = 2 * time.Second
	}
	// The node clients keep one keep-alive pool per worker node, as
	// large as the coordinator's own concurrency toward a node: its
	// ticket lanes plus one matrix's cell lookups, which may all go to
	// one node at once. Go's default transport keeps two idle
	// connections per host, far fewer than a replay's lookups.
	perNode := opts.NodeConcurrency + len(core.MatrixDesignNames())*len(core.MatrixArchKinds())*len(core.MatrixFlows())
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = perNode
	tr.MaxIdleConns = perNode * len(opts.Workers)
	c := &Coordinator{opts: opts, hc: &http.Client{Transport: tr},
		nodes: make(map[string]*nodeClient, len(opts.Workers)), ranOn: newLRU(1024)}
	for _, w := range opts.Workers {
		n := newNodeClient(w, c.hc)
		if _, dup := c.nodes[n.base]; dup {
			return nil, fmt.Errorf("duplicate worker node %q", n.base)
		}
		c.nodes[n.base] = n
		c.order = append(c.order, n.base)
	}
	c.ring = newRing(c.order)
	c.sched = newScheduler(opts.NodeConcurrency)
	e, pending, err := newEngine(Options{
		CacheSize: opts.CacheSize, JobsKeep: opts.JobsKeep, JobTimeout: opts.JobTimeout,
		LedgerPath: opts.LedgerPath, DataDir: opts.DataDir, Logger: opts.Logger,
	}, "c", c)
	if err != nil {
		return nil, err
	}
	c.engine = e
	e.mux.HandleFunc("POST /v1/batch", c.handleBatch)
	e.mux.HandleFunc("GET /v1/cluster/status", c.handleClusterStatus)
	for _, base := range c.order {
		for i := 0; i < opts.NodeConcurrency; i++ {
			c.runners.Add(1)
			go c.runner(c.nodes[base])
		}
	}
	if opts.healthInterval > 0 {
		c.runners.Add(1)
		go c.healthLoop()
	}
	e.launchAll(pending)
	return c, nil
}

// Shutdown drains the coordinator's jobs — their tickets keep flowing
// until the jobs finish or ctx expires — then fails whatever tickets
// are still queued, stops the runners and closes the connections to
// the workers.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	err := c.engine.Shutdown(ctx)
	c.sched.close()
	c.runners.Wait()
	c.hc.CloseIdleConnections()
	return err
}

// ---------------------------------------------------------------------------
// Ticket scheduling: per-node queues, priority + tenant fairness,
// work stealing.

// ticket is one unit of shipped work: the canonical body POSTed to a
// worker endpoint, plus the scheduling coordinates (home node from the
// ring, priority and tenant from the originating job).
type ticket struct {
	ctx      context.Context // the owning job's: cancelled with it
	seq      int64
	priority int
	tenant   string
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

	// follower: the ticket is a lane's later cell, homed on the node
	// that ran or served the cell before it, whose stage tier holds
	// that cell's compacted netlist and placement. No other node's
	// runner steals it.
	follower bool

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
	env  *rawEnvelope
	node string // the node that ran the ticket
	err  error
}

// deliver resolves the ticket exactly once.
func (t *ticket) deliver(out ticketOutcome) {
	t.once.Do(func() { t.res <- out })
}

// scheduler holds the per-node ticket queues. Queue discipline within
// a node: highest priority first; ties go to the tenant served least
// recently (so equal-priority tenants round-robin instead of one bulk
// submitter draining the node); final tie is FIFO. A runner whose own
// queue is empty steals from the longest queue that holds a ticket
// other than a follower — which is also how a dead node's leftover
// tickets drain after a re-shard.
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
			if t := sc.popBest(node, false); t != nil {
				sc.active[node]++
				return t, false
			}
			// Steal from the longest other queue — but only where it
			// helps: a backlog the victim can't serve promptly (≥ 2
			// queued, or every victim lane already busy). A lone ticket
			// on an idle live node is left to its home runner; stealing
			// it would trade shard/cache locality for nothing, and the
			// re-run of a cached sweep then recomputes cells whose
			// results live on the ring owner. Followers are never
			// stolen: away from their home they anneal again.
			victim, max := "", 0
			for other, q := range sc.queues {
				if other == node || !slices.ContainsFunc(q, stealable) {
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
				return sc.popBest(victim, true), true
			}
		}
		sc.cond.Wait()
	}
}

func stealable(t *ticket) bool { return !t.follower }

// popBest removes and returns the node queue's best ticket per the
// queue discipline, among the stealable ones for a thief (nil when
// there is none). Callers hold sc.mu.
func (sc *scheduler) popBest(node string, thief bool) *ticket {
	q := sc.queues[node]
	best := -1
	for i, a := range q {
		if thief && !stealable(a) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := q[best]
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
	if best < 0 {
		return nil
	}
	t := q[best]
	sc.queues[node] = append(q[:best], q[best+1:]...)
	sc.serveSq++
	sc.served[t.tenant] = sc.serveSq
	return t
}

// requeue moves every ticket queued on a (dead) node to the home the
// rehome function assigns — a follower too, which anneals there like
// any other ticket; tickets with no possible home fail. It returns how
// many tickets moved.
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
		t.home, t.follower = home, false
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
	defer c.runners.Done()
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
		c.dispatch(n, t)
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

// dispatch ships one ticket to the node and classifies the outcome. A
// transport failure presumes the node dead: it is marked down (its
// queue re-shards onto the survivors) and the in-flight ticket is
// resubmitted to its new ring owner — the recompute is safe because
// every ticket is a pure, deterministic function of its body.
func (c *Coordinator) dispatch(n *nodeClient, t *ticket) {
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
	env, status, err := n.post(t.ctx, t.path+"?wait=1", t.body, t.traceHeaderValue())
	if err != nil {
		if t.ctx.Err() != nil {
			t.deliver(ticketOutcome{err: err}) // the job ended; the node is not at fault
			return
		}
		n.errs.Add(1)
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
		if env.Cached {
			c.workerCacheHits.Add(1)
		}
		if env.Status == "done" && n.base != c.ring.owner(t.key) {
			c.ranOn.put(t.key, n.base)
		}
		record(env.ID, env.Cached, env.Error)
		t.deliver(ticketOutcome{env: env, node: n.base})
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
		case <-t.ctx.Done():
			t.deliver(ticketOutcome{err: t.ctx.Err()})
			return nil
		case <-time.After(50 * time.Millisecond):
		}
		raw, status, err := n.get(t.ctx, "/v1/runs/"+env.ID)
		switch {
		case err != nil && t.ctx.Err() != nil:
			t.deliver(ticketOutcome{err: t.ctx.Err()})
			return nil
		case err != nil:
			n.errs.Add(1)
			c.markDown(n)
			c.resubmit(t, err)
			return nil
		}
		var next rawEnvelope
		if err := json.Unmarshal(raw, &next); err != nil || status != http.StatusOK {
			t.deliver(ticketOutcome{err: fmt.Errorf("polling %s on %s: HTTP %d, %v", env.ID, n.base, status, err)})
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
	home := c.ring.owner(t.key)
	if home == "" {
		t.deliver(ticketOutcome{err: fmt.Errorf("no live worker nodes: %w", cause)})
		return
	}
	c.reshards.Add(1)
	t.trace.instant("reshard", map[string]any{"ticket": t.name, "to": home, "attempts": t.attempts})
	c.log.Info("ticket resharded", "ticket_id", t.name, "to", home, "attempts", t.attempts,
		"trace_id", t.traceID, "cause", cause.Error())
	t.home, t.follower = home, false
	if !c.sched.enqueue(t) {
		t.deliver(ticketOutcome{err: errors.New("coordinator shutting down")})
	}
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
		home := c.ring.owner(t.key)
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
	defer c.runners.Done()
	tick := time.NewTicker(c.opts.healthInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-tick.C:
		}
		for _, base := range c.order {
			n := c.nodes[base]
			ctx, cancel := context.WithTimeout(c.baseCtx, c.opts.healthInterval)
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

// runTicket is the blocking ticket helper the coordinator's jobs use,
// and returns the node that ran or served the ticket. after is that
// node for the previous cell of the ticket's lane ("" for a lane's
// first cell or a whole job). A result the cluster already computed is
// fetched, not recomputed: from after, then from the node a steal or a
// follower left it on, then from the key's ring owner. Only when all
// miss is the ticket enqueued and awaited: as a follower homed on after
// while that node is up, so the run restores the previous cell's
// stages there, and otherwise on the ring owner. A miss or a down node
// also forgets the off-owner entry. The owning job supplies the
// scheduling coordinates (priority, tenant) and the trace context;
// name labels the ticket on the merged timeline, and k's route is
// where the ticket goes.
func (c *Coordinator) runTicket(ctx context.Context, j *job, name string, k *kind, body []byte, key, after string) (*rawEnvelope, string, error) {
	c.tickets.Add(1)
	if env, hit := c.fetch(ctx, j, name, after, key); hit {
		return env, after, nil
	}
	owner := c.ring.owner(key)
	if ran, ok := c.ranOn.get(key); ok && ran != owner {
		if ran != after {
			if env, hit := c.fetch(ctx, j, name, ran.(string), key); hit {
				return env, ran.(string), nil
			}
		}
		c.ranOn.remove(key)
	}
	if owner != after {
		if env, hit := c.fetch(ctx, j, name, owner, key); hit {
			return env, owner, nil
		}
	}
	c.peerMisses.Add(1)
	t := &ticket{
		ctx: ctx, priority: j.priority, tenant: j.tenant, name: name, path: k.path,
		key: key, body: body, traceID: j.traceID, trace: j.trace,
		res: make(chan ticketOutcome, 1),
	}
	if n := c.nodes[after]; n != nil && !n.down.Load() {
		t.home, t.follower = after, true
	} else if t.home = c.ring.owner(key); t.home == "" {
		return nil, "", errors.New("no live worker nodes")
	}
	if !c.sched.enqueue(t) {
		return nil, "", errors.New("coordinator shutting down")
	}
	select {
	case out := <-t.res:
		return out.env, out.node, out.err
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
}

// fetch asks one node's cache for the key's result; an unknown ("" —
// no live node) or down node is a miss.
func (c *Coordinator) fetch(ctx context.Context, j *job, name, node, key string) (*rawEnvelope, bool) {
	n := c.nodes[node]
	if n == nil || n.down.Load() {
		return nil, false
	}
	start := j.trace.since()
	lctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	raw, ok := n.cacheGet(lctx, key)
	cancel()
	if !ok {
		return nil, false
	}
	c.peerHits.Add(1)
	j.trace.ticket(ticketRecord{name: name, node: node, start: start, end: j.trace.since(), cached: true})
	return &rawEnvelope{Status: "done", Cached: true, Result: raw}, true
}

// ---------------------------------------------------------------------------
// The coordinator's executor.

// caches: the coordinator keeps only what it merges. A forwarded run
// or routing sweep resolves from the workers' caches.
func (c *Coordinator) caches(r jobRequest) bool {
	_, ok := r.(composite)
	return ok
}

// prepare mints the job's distributed trace — the ID every ticket of
// the job carries, unless the submission brought one — and the
// recorder behind GET /v1/jobs/{id}/trace.
func (c *Coordinator) prepare(j *job) {
	if j.traceID == "" {
		j.traceID = newTraceID()
	}
	j.trace = newJobTrace(j.traceID)
}

// execute fans a composite out as per-cell tickets and forwards any
// other job whole to the ring owner of its key, whose envelope —
// result bytes, cached flag, failure — becomes the job's.
func (c *Coordinator) execute(ctx context.Context, j *job) (any, bool, error) {
	defer j.trace.span("job "+j.kind.name, map[string]any{"job_id": j.id})()
	if comp, ok := j.req.(composite); ok {
		res, err := comp.fanOut(ctx, c.cellTickets(ctx, j), j.trace)
		return res, false, err
	}
	env, _, err := c.runTicket(ctx, j, j.label, j.kind, j.body, j.key, "")
	switch {
	case err != nil:
		return nil, false, err
	case env.Status == "failed":
		return nil, false, &remoteError{msg: env.Error, stage: env.Stage, kind: env.ErrorKind}
	}
	return env.Result, env.Cached, nil
}

// ticketFunc runs one composite cell — its canonical request under a
// ticket label — after the node that ran or served the previous cell
// of its lane ("" for a lane's first cell), and returns the cell's
// report and the node that ran or served it.
type ticketFunc func(req core.FlowRequest, label, after string) (rep *core.Report, node string, err error)

// cells adapts a ticket function to the core executor: ticket builds a
// cell's request and label. A matrix runs one lane per (design, arch),
// as RunMatrix does, and each lane's later cell goes after the node its
// previous cell ran or was served on, where the worker's stage tier
// hands it that cell's compacted netlist and placement. A sweep's
// cells run on lanes of their own.
func (run ticketFunc) cells(ticket func(core.Cell) (core.FlowRequest, string)) core.CellRunner {
	lane := func(_ float64, body func(core.CellFunc)) {
		var node string
		body(func(c core.Cell) (rep *core.Report, err error) {
			req, label := ticket(c)
			rep, node, err = run(req, label, node)
			return rep, err
		})
	}
	return core.CellRunner{Lane: lane}
}

// cellTickets runs each cell as a run ticket. A failed ticket comes
// back as the *core.FlowError the worker rendered, at the coordinates
// its request resolves to, so it is ledgered exactly as a single node
// ledgers it.
func (c *Coordinator) cellTickets(ctx context.Context, j *job) ticketFunc {
	return func(req core.FlowRequest, label, after string) (*core.Report, string, error) {
		body, key, err := cellTicket(req)
		if err != nil {
			return nil, "", err
		}
		env, node, err := c.runTicket(ctx, j, label, runKind, body, key, after)
		switch {
		case err != nil:
			return nil, "", err
		case env.Status == "failed":
			d, cfg, err := req.Resolve()
			if err != nil {
				return nil, node, err
			}
			return nil, node, core.ParseFlowError(d.Name, cfg.Arch.Name, cfg.Flow.String(), env.Stage, env.Error)
		}
		rep := &core.Report{}
		if err := json.Unmarshal(env.Result, rep); err != nil {
			return nil, node, fmt.Errorf("decoding cell report: %w", err)
		}
		return rep, node, nil
	}
}

// cellTicket encodes a composite cell as a run ticket: the body a
// worker receives and the key the worker derives from it. The plan
// built the cell in canonical form and the composite's check validated
// the job at parse, so the cell is keyed as kind.spec keys a parsed
// run, without validating it again.
func cellTicket(req core.FlowRequest) (body []byte, key string, err error) {
	if body, err = json.Marshal(req); err != nil {
		return nil, "", err
	}
	key, err = core.CanonicalKey(runKind.name, req)
	return body, key, err
}

// writeTrace serves GET /v1/jobs/{id}/trace: the job's merged
// cluster-wide Chrome trace — coordinator control spans plus every
// worker node's tickets with their per-stage fragments fetched back
// from the workers that still answer.
func (c *Coordinator) writeTrace(w http.ResponseWriter, r *http.Request, j *job) {
	events := c.mergedTrace(r.Context(), j)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(events)
}

// ---------------------------------------------------------------------------
// POST /v1/batch: bulk submission with priorities and tenant fairness.

// batchItem is one job in a batch: its kind-specific request plus the
// scheduling coordinates. Higher priority runs first; within a
// priority, tenants round-robin (least recently served tenant wins),
// so a 10k-item sweep from one tenant cannot starve another tenant's
// interactive runs.
type batchItem struct {
	Kind     string          `json:"kind"` // a kind table name
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

// handleBatch parses every item through the kind table, then admits
// them all (202). An invalid item rejects the whole batch before any
// job starts; each item answers as its own POST would.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 4<<20), &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch has no jobs"))
		return
	}
	specs := make([]jobSpec, len(req.Jobs))
	for i, item := range req.Jobs {
		var err error
		if specs[i], err = parseSpec(item.Kind, item.Request); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("batch job %d: %w", i, err))
			return
		}
	}
	c.batches.Add(1)
	resp := batchResponse{Jobs: make([]jobResponse, len(specs))}
	for i, sp := range specs {
		hit, j, _, err := c.admit(r.Context(), sp, "", req.Jobs[i].Priority, req.Jobs[i].Tenant)
		switch {
		case err != nil:
			resp.Jobs[i] = jobResponse{Status: "rejected", Error: err.Error()}
		case hit != nil:
			resp.Jobs[i] = *hit
		default:
			resp.Jobs[i] = j.response()
		}
	}
	writeJSON(w, http.StatusAccepted, resp)
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

// nodeStats snapshots every node's slice of the rollup and counts the
// live ones.
func (c *Coordinator) nodeStats() (stats []clusterNodeStat, up int) {
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
		if !n.down.Load() {
			up++
		}
	}
	return stats, up
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

// rollup is the cluster picture /healthz and GET /v1/cluster/status
// share; the fleet is up while any node is.
func (c *Coordinator) rollup() (map[string]any, bool) {
	nodes, up := c.nodeStats()
	return map[string]any{
		"role":     "coordinator",
		"nodes":    nodes,
		"nodes_up": up,
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
	}, up > 0
}

// handleClusterStatus serves GET /v1/cluster/status: the live
// scheduling picture `vpgaflow cluster top` renders — per-node queue
// depth, in-flight tickets, steal/reshard counters, and stage-cache
// hit ratios — as one JSON snapshot.
func (c *Coordinator) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	status, _ := c.rollup()
	c.mu.Lock()
	status["jobs_tracked"] = len(c.jobs)
	c.mu.Unlock()
	status["uptime_seconds"] = time.Since(c.start).Seconds()
	writeJSON(w, http.StatusOK, status)
}

// writeRollup appends the coordinator's Prometheus series to /metrics:
// cluster counters, the peer-hit ratio, and one labeled series per
// node.
func (c *Coordinator) writeRollup(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("vpgad_batches_total", "batch submissions accepted", c.batches.Load())
	counter("vpgad_cluster_tickets_total", "tickets resolved (peer cache or worker execution)", c.tickets.Load())
	counter("vpgad_cluster_ticket_retries_total", "tickets re-queued on worker backpressure", c.ticketRetries.Load())
	counter("vpgad_cluster_steals_total", "tickets stolen by an idle node's runner", c.steals.Load())
	counter("vpgad_cluster_reshards_total", "tickets re-homed after a node died or drained", c.reshards.Load())
	counter("vpgad_cluster_peer_hits_total", "tickets served from a peer cache before scheduling", c.peerHits.Load())
	counter("vpgad_cluster_peer_misses_total", "peer cache lookups that missed", c.peerMisses.Load())
	counter("vpgad_cluster_worker_cache_hits_total", "tickets the executing worker served from its own cache", c.workerCacheHits.Load())
	nodes, up := c.nodeStats()
	fmt.Fprintf(w, "# HELP vpgad_cluster_nodes worker nodes configured\n# TYPE vpgad_cluster_nodes gauge\nvpgad_cluster_nodes %d\n", len(nodes))
	fmt.Fprintf(w, "# HELP vpgad_cluster_nodes_up worker nodes currently live\n# TYPE vpgad_cluster_nodes_up gauge\nvpgad_cluster_nodes_up %d\n", up)
	fmt.Fprintf(w, "# HELP vpgad_cluster_peer_hit_ratio fraction of tickets served from peer or worker caches\n# TYPE vpgad_cluster_peer_hit_ratio gauge\nvpgad_cluster_peer_hit_ratio %s\n",
		strconv.FormatFloat(c.peerHitRatio(), 'f', 6, 64))
	perNode := func(name, typ, help string, v func(clusterNodeStat) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, n := range nodes {
			fmt.Fprintf(w, "%s{node=%q} %d\n", name, n.Node, v(n))
		}
	}
	perNode("vpgad_cluster_node_up", "gauge", "whether the node answers health probes", func(n clusterNodeStat) int64 {
		if n.Up {
			return 1
		}
		return 0
	})
	perNode("vpgad_cluster_node_dispatched_total", "counter", "tickets dispatched to the node",
		func(n clusterNodeStat) int64 { return n.Dispatched })
	perNode("vpgad_cluster_node_errors_total", "counter", "transport failures talking to the node",
		func(n clusterNodeStat) int64 { return n.Errors })
	perNode("vpgad_cluster_node_queue_depth", "gauge", "tickets queued for the node on the coordinator",
		func(n clusterNodeStat) int64 { return int64(n.TicketQueueDepth) })
	perNode("vpgad_cluster_node_inflight", "gauge", "tickets currently executing on the node",
		func(n clusterNodeStat) int64 { return int64(n.InFlightTickets) })
}
