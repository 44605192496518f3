package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vpga/internal/core"
	"vpga/internal/faultinject"
)

// peerFetchPoint is the fault-injection point armed around every
// peer-cache HTTP fetch: an injected fault models the peer transport
// failing (connection reset, partial read), and the lookup degrades to
// a miss — local compute — never an error.
const peerFetchPoint = "peer.fetch"

// nodeClient is the coordinator's handle on one worker node: its base
// URL, the HTTP client it shares with the other nodes, liveness, and
// per-node rollup counters.
type nodeClient struct {
	base string
	hc   *http.Client
	down atomic.Bool

	dispatched atomic.Int64 // tickets sent to this node
	errs       atomic.Int64 // transport/protocol failures talking to it

	mu     sync.Mutex
	health nodeHealth // last scraped /healthz snapshot
}

// nodeHealth is the slice of a worker's /healthz the coordinator rolls
// up into cluster metrics and GET /v1/cluster/status.
type nodeHealth struct {
	QueueDepth  int                  `json:"queue_depth"`
	JobsRunning int64                `json:"jobs_running"`
	StageCache  core.StageCacheStats `json:"stage_cache"`
}

// newNodeClient takes the client every call goes through; per-call
// deadlines come from contexts.
func newNodeClient(base string, hc *http.Client) *nodeClient {
	return &nodeClient{base: strings.TrimRight(base, "/"), hc: hc}
}

// rawEnvelope is a worker jobResponse with the result left raw: the
// coordinator forwards or merges result bytes without re-decoding
// what it does not need, which is also what keeps forwarded results
// byte-identical to the worker's own rendering.
type rawEnvelope struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Cached    bool            `json:"cached"`
	Result    json.RawMessage `json:"result"`
	Error     string          `json:"error"`
	Stage     string          `json:"stage"`
	ErrorKind string          `json:"error_kind"`

	RetryAfter time.Duration `json:"-"` // from the Retry-After header on a 429
}

// post submits a job body to the node and decodes the response
// envelope. The returned error covers transport and decode failures
// only — an HTTP error status comes back as (envelope, status, nil)
// for the caller to classify (429 backs off, 503 marks the node
// draining, 4xx is the request's own fault).
// The trace argument, when non-empty, rides on the X-Vpga-Trace
// header so the worker threads the coordinator's trace context into
// its own tracer.
func (n *nodeClient) post(ctx context.Context, path string, body []byte, trace string) (*rawEnvelope, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(TraceHeader, trace)
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var env rawEnvelope
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&env); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("decoding %s response: %w", path, err)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		env.RetryAfter = time.Duration(secs) * time.Second
	}
	return &env, resp.StatusCode, nil
}

// get fetches path from the node: the body (bounded), the HTTP status,
// and any transport error.
func (n *nodeClient) get(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	return raw, resp.StatusCode, err
}

// cacheGet asks the node's lookup-only cache endpoint for a result's
// raw JSON. Every failure — transport, injected transport fault,
// non-200 — is a miss.
func (n *nodeClient) cacheGet(ctx context.Context, key string) ([]byte, bool) {
	if faultinject.Check(peerFetchPoint) != nil {
		return nil, false
	}
	raw, status, err := n.get(ctx, "/v1/cache/"+url.PathEscape(key))
	return raw, err == nil && status == http.StatusOK
}

// traceFragment fetches a worker job's Chrome trace-event fragment
// (GET /v1/runs/{id}/trace) for the merged cluster timeline. Every
// failure — transport, non-200, malformed JSON — yields (nil, false):
// a fragment is decoration on the coordinator-side ticket span, never
// load-bearing.
func (n *nodeClient) traceFragment(ctx context.Context, jobID string) ([]traceEvent, bool) {
	raw, status, err := n.get(ctx, "/v1/runs/"+url.PathEscape(jobID)+"/trace")
	var frag []traceEvent
	if err != nil || status != http.StatusOK || json.Unmarshal(raw, &frag) != nil {
		return nil, false
	}
	return frag, true
}

// healthy probes the node's /healthz and scrapes its queue snapshot;
// only a 200 counts as up (503 means draining — no new tickets).
func (n *nodeClient) healthy(ctx context.Context) bool {
	raw, status, err := n.get(ctx, "/healthz")
	if err != nil {
		return false
	}
	var h nodeHealth
	if json.Unmarshal(raw, &h) == nil {
		n.mu.Lock()
		n.health = h
		n.mu.Unlock()
	}
	return status == http.StatusOK
}

func (n *nodeClient) lastHealth() nodeHealth {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.health
}

// NewPeerLookup builds the Options.PeerLookup for a worker node in a
// cluster: the ring over all nodes decides which peer owns a key, and
// a key owned elsewhere triggers one lookup against that owner's
// cache endpoint. Keys this node owns itself resolve locally (its own
// LRU and artifact store already ran before the peer tier), so the
// lookup never loops back to self and never cascades.
func NewPeerLookup(self string, nodes []string) func(ctx context.Context, kind, key string) ([]byte, bool) {
	self = strings.TrimRight(self, "/")
	r := newRing(nodes)
	peers := make(map[string]*nodeClient, len(nodes))
	hc := &http.Client{}
	for _, n := range nodes {
		if c := newNodeClient(n, hc); c.base != self {
			peers[c.base] = c
		}
	}
	return func(ctx context.Context, kind, key string) ([]byte, bool) {
		owner := strings.TrimRight(r.owner(key), "/")
		peer := peers[owner]
		if peer == nil {
			return nil, false // we own it (or the ring is empty): no peer to ask
		}
		ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		return peer.cacheGet(ctx, key)
	}
}
