package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"vpga/internal/core"
	"vpga/internal/server"
)

// serviceRequests is service-mix's request pool: every design × arch ×
// flow × seed, at an auto-derived and a fixed 9000 ps clock. The two
// clock variants of a run share its placement in the stage cache.
func serviceRequests(c config) []core.FlowRequest {
	var out []core.FlowRequest
	for _, d := range c.svcDesigns {
		for _, arch := range core.MatrixArchKinds() {
			for _, flow := range core.MatrixFlows() {
				for s := 1; s <= c.svcSeeds; s++ {
					for _, clock := range []float64{0, 9000} {
						out = append(out, core.FlowRequest{Design: d, Arch: core.ArchSpec{Kind: arch},
							Flow: flow, Seed: int64(s), ClockPeriod: clock})
					}
				}
			}
		}
	}
	return out
}

// requestLabel names a pool request in golden.json.
func requestLabel(q core.FlowRequest) string {
	return fmt.Sprintf("%s/%s/%s/s%d/c%g", q.Design, q.Arch.Kind, q.Flow, q.Seed, q.ClockPeriod)
}

// envelope is the part of a vpgad job response the benchmark reads.
type envelope struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// post sends a JSON body and decodes the job envelope; anything but a
// finished job is an error.
func post(client *http.Client, url string, body []byte) (envelope, []byte, error) {
	var env envelope
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return env, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return env, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return env, raw, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return env, raw, err
	}
	if env.Status != "done" {
		return env, raw, fmt.Errorf("job %s %s: %s", env.ID, env.Status, env.Error)
	}
	return env, raw, nil
}

// reportDigest is the digest of a run result's report after
// StripMetrics, the form golden.json holds.
func reportDigest(raw json.RawMessage) (string, *core.Report, error) {
	var rep core.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return "", nil, err
	}
	full := rep.Clone()
	rep.StripMetrics()
	d, err := digestJSON(&rep)
	return d, full, err
}

// newClient is the benchmark's HTTP client: at most two connections,
// one per client goroutine.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

// runServiceMix drives an in-process vpgad with two closed-loop clients
// drawing requests from the pool with seeded Zipf(1.1) popularity.
func runServiceMix(ctx context.Context, r *run) error {
	pool := serviceRequests(r.cfg)
	type svc struct {
		url  string
		ts   *httptest.Server
		srv  *server.Server
		dir  string
		reqs [][]byte
	}
	s, done, err := setup(r, func() (svc, func(), error) {
		var s svc
		var err error
		for _, q := range pool {
			s.reqs = append(s.reqs, mustJSON(q))
		}
		if s.dir, err = r.tempDir("vpgad-"); err != nil {
			return s, func() {}, err
		}
		s.srv, err = server.New(server.Options{Workers: 2, CacheSize: 32, DataDir: s.dir})
		if err != nil {
			return s, func() { os.RemoveAll(s.dir) }, err
		}
		s.ts = httptest.NewServer(s.srv)
		s.url = s.ts.URL
		return s, func() {
			s.ts.Close()
			s.srv.Shutdown(context.Background())
			os.RemoveAll(s.dir)
		}, nil
	})
	defer done()
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()

	rng := rand.New(rand.NewSource(r.seed))
	perm := rng.Perm(len(pool))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	var (
		mu       sync.Mutex
		hits     []float64
		misses   []float64
		bodies   = map[int]map[string][]byte{} // pool index → digest → body
		opsByKey = map[string][]int{}          // pool index + body digest → ops
	)
	next := func() int {
		mu.Lock()
		defer mu.Unlock()
		return perm[zipf.Uint64()]
	}
	var before map[string]float64
	if r.traced {
		if before, err = scrape(client, s.url+"/metrics"); err != nil {
			return err
		}
	}
	r.begin()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(r.deadline()) {
				i := next()
				var (
					env envelope
					raw []byte
				)
				t := time.Now()
				id, err := r.op("request", func(int) error {
					var err error
					env, raw, err = post(client, s.url+"/v1/runs?wait=1", s.reqs[i])
					return err
				})
				lat := ms(time.Since(t))
				if err != nil {
					continue
				}
				d := digest(raw)
				mu.Lock()
				if env.Cached {
					hits = append(hits, lat)
				} else {
					misses = append(misses, lat)
				}
				if bodies[i] == nil {
					bodies[i] = map[string][]byte{}
				}
				if _, ok := bodies[i][d]; !ok {
					bodies[i][d] = raw
				}
				k := strconv.Itoa(i) + "/" + d
				opsByKey[k] = append(opsByKey[k], id)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.finish()

	// Every answer for a request — computed, LRU hit or store hit — must
	// carry the same report, the golden one when goldens apply.
	idx := make([]int, 0, len(bodies))
	for i := range bodies {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var payloads [][]byte
	missJobs := map[string]bool{}
	for _, i := range idx {
		label := requestLabel(pool[i])
		want := ""
		if r.cfg.golden {
			want = goldenDigests["service-mix"][label]
		}
		for d, raw := range bodies[i] {
			var (
				env  envelope
				got  string
				full *core.Report
			)
			err := json.Unmarshal(raw, &env)
			if err == nil {
				got, full, err = reportDigest(env.Result)
			}
			if want == "" {
				want = got
			}
			if err == nil && got != want {
				err = fmt.Errorf("report digest %.12s, want %.12s", got, want)
			}
			if err != nil {
				for _, id := range opsByKey[strconv.Itoa(i)+"/"+d] {
					r.fail(id, "%s: %v", label, err)
				}
				continue
			}
			if r.traced && !env.Cached && !missJobs[env.ID] {
				missJobs[env.ID] = true
				r.layers.addReport(full)
			}
			if env.Cached {
				payloads = append(payloads, env.Result)
			}
		}
	}
	r.detail("hit_p50_ms", median(hits))
	r.detail("hit_p99_ms", percentile(hits, 0.99))
	r.detail("miss_p50_ms", median(misses))
	r.detail("hits", float64(len(hits)))
	r.detail("misses", float64(len(misses)))
	if !r.traced {
		return nil
	}
	after, err := scrape(client, s.url+"/metrics")
	if err != nil {
		return err
	}
	r.layers.addProm(before, after)
	if err := r.layers.timeKeys(pool); err != nil {
		return err
	}
	return r.timeStore(payloads)
}
