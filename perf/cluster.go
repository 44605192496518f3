package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"vpga/internal/core"
	"vpga/internal/server"
)

// cluster is an in-process coordinator over worker daemons that form a
// peer-cache ring. The coordinator's composite-result cache holds one
// matrix, so a job for any other matrix is dispatched as tickets. Two
// tickets in flight per worker keep each single-job worker busy without
// overflowing its two-slot queue, which would answer 429 and cost the
// ticket a Retry-After pause of at least a second.
type cluster struct {
	workers []*server.Server
	wts     []*httptest.Server
	urls    []string
	coord   *server.Coordinator
	cts     *httptest.Server
}

func startCluster(n int) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(nil)
		c.wts = append(c.wts, ts)
		c.urls = append(c.urls, "http://"+ts.Listener.Addr().String())
	}
	for i, ts := range c.wts {
		s, err := server.New(server.Options{Workers: 1, PeerLookup: server.NewPeerLookup(c.urls[i], c.urls)})
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, s)
		ts.Config.Handler = s
		ts.Start()
	}
	co, err := server.NewCoordinator(server.CoordinatorOptions{Workers: c.urls, CacheSize: 1, NodeConcurrency: 2})
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord, c.cts = co, httptest.NewServer(co)
	return c, nil
}

func (c *cluster) close() {
	if c.coord != nil {
		c.cts.Close()
		c.coord.Shutdown(context.Background())
	}
	for i, ts := range c.wts {
		ts.Close()
		if i < len(c.workers) {
			c.workers[i].Shutdown(context.Background())
		}
	}
}

// matrixDigest is the digest of a coordinator or single-node matrix
// result in canonical form.
func matrixDigest(raw json.RawMessage) (string, error) {
	var m server.MatrixResult
	if err := json.Unmarshal(raw, &m); err != nil {
		return "", err
	}
	return digestJSON(m)
}

// runClusterMatrix drives a coordinator over two workers in cycles: one
// cold matrix with the next seed of the pool, then clusterReplays warm
// replays that alternate between it and the previous cold matrix. The
// alternation defeats the coordinator's one-entry composite cache, so
// every replay is dispatched as tickets that the workers serve from
// their caches: its latency is the coordinator's dispatch overhead. The
// fixed cold-to-warm mix keeps ops_per_s and alloc_mb_per_op comparable
// between runs.
func runClusterMatrix(ctx context.Context, r *run) error {
	cl, done, err := setup(r, func() (*cluster, func(), error) {
		cl, err := startCluster(2)
		if err != nil {
			return nil, func() {}, err
		}
		return cl, cl.close, nil
	})
	defer done()
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	var workerPrev []map[string]float64
	if r.traced {
		for _, u := range cl.urls {
			m, err := scrape(client, u+"/metrics")
			if err != nil {
				return err
			}
			workerPrev = append(workerPrev, m)
		}
	}
	type cold struct {
		id     int
		seed   int64
		body   []byte
		result []byte
		digest string
	}
	var (
		colds            []cold
		coldLat, warmLat []time.Duration
	)
	submit := func(name string, body []byte, lat *[]time.Duration) (int, envelope, error) {
		var env envelope
		t := time.Now()
		id, err := r.op(name, func(int) error {
			var err error
			env, _, err = post(client, cl.cts.URL+"/v1/matrix?wait=1", body)
			return err
		})
		if err == nil {
			*lat = append(*lat, time.Since(t))
		}
		return id, env, err
	}
	cycle := func() time.Duration {
		return medianDur(coldLat) + time.Duration(r.cfg.clusterReplays)*medianDur(warmLat)
	}
	r.begin()
	for k := 0; k < r.cfg.clusterSeeds && (k == 0 || r.more(cycle())); k++ {
		seed := flowSeed(r.cfg.clusterSeeds, r.seed, k)
		c := cold{seed: seed, body: mustJSON(server.MatrixRequest{Scale: "test", Seed: seed, PlaceEffort: r.cfg.clusterEffort})}
		id, env, err := submit("cold matrix", c.body, &coldLat)
		if err != nil {
			continue
		}
		c.id, c.result = id, env.Result
		if c.digest, err = matrixDigest(env.Result); err != nil {
			r.fail(id, "cold matrix result: %v", err)
			continue
		}
		if r.traced {
			if err := r.clusterLayers(client, cl.cts.URL, env); err != nil {
				return err
			}
		}
		colds = append(colds, c)
		for j := 0; len(colds) > 1 && j < r.cfg.clusterReplays; j++ {
			w := colds[len(colds)-2+j%2]
			id, env, err := submit("warm matrix", w.body, &warmLat)
			if err != nil {
				continue
			}
			if d, err := matrixDigest(env.Result); err != nil || d != w.digest {
				r.fail(id, "warm replay of seed %d differs from its cold result", w.seed)
			}
		}
	}
	r.finish()

	seen := map[int64]string{}
	var payloads [][]byte
	for _, c := range colds {
		r.checkDigest(c.id, "cluster-matrix", c.seed, c.digest, seen)
		payloads = append(payloads, c.result)
	}
	r.detail("cold_s", medianDur(coldLat).Seconds())
	r.detail("warm_ms", ms(medianDur(warmLat)))
	if !r.traced || len(colds) == 0 {
		return nil
	}
	coord, err := scrape(client, cl.cts.URL+"/metrics")
	if err != nil {
		return err
	}
	r.layers.setCoord(coord)
	for i, u := range cl.urls {
		m, err := scrape(client, u+"/metrics")
		if err != nil {
			return err
		}
		r.layers.addProm(workerPrev[i], m)
	}
	plan := core.MatrixPlan{Scale: "test", Seed: colds[0].seed, PlaceEffort: r.cfg.clusterEffort}
	var reqs []core.FlowRequest
	for _, d := range core.MatrixDesignNames() {
		reqs = append(reqs, plan.PinTicket(d))
		for _, cell := range plan.DependentTickets(d, 1000) {
			reqs = append(reqs, cell.Req)
		}
	}
	if err := r.layers.timeKeys(reqs); err != nil {
		return err
	}
	return r.timeStore(payloads)
}

// clusterLayers folds a cold matrix job's merged cluster trace (worker
// stage spans and solver counters) and its reports' QoR into the layer
// totals.
func (r *run) clusterLayers(client *http.Client, base string, env envelope) error {
	resp, err := client.Get(base + "/v1/jobs/" + env.ID + "/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var events []traceEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		return fmt.Errorf("merged trace: %w", err)
	}
	r.layers.addTrace(events)
	var m server.MatrixResult
	if err := json.Unmarshal(env.Result, &m); err != nil {
		return err
	}
	for _, byArch := range m.Reports {
		for _, byFlow := range byArch {
			for _, rep := range byFlow {
				r.layers.addQoR(rep)
			}
		}
	}
	return nil
}
