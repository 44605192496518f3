package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"

	"vpga/internal/cells"
	"vpga/internal/core"
	"vpga/internal/server"
)

// goldenJSON holds, per workload, the SHA-256 digest of every output
// the full-size workloads can produce — keyed by flow seed, or by
// request for service-mix — after StripMetrics. Regenerate it with
// -update-golden when the flow's results change on purpose.
//
//go:embed testdata/golden.json
var goldenJSON []byte

var goldenDigests = func() map[string]map[string]string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("perf: testdata/golden.json: " + err.Error())
	}
	return g
}()

// updateGolden recomputes every golden digest of the full-size
// workloads and writes them to path. The cluster-matrix digests come
// from a single-node vpgad, so cluster runs are checked against it.
func updateGolden(ctx context.Context, path string) error {
	cfg := fullConfig
	g := map[string]map[string]string{
		"paper-matrix": {}, "route-sweep": {}, "service-mix": {}, "cluster-matrix": {},
	}
	suite, sweep := cfg.matrixSuite(), cfg.sweepDesign()
	srv, err := server.New(server.Options{Workers: 2})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Shutdown(ctx)
	}()
	client := newClient()
	for s := int64(1); s <= int64(cfg.matrixSeeds); s++ {
		m, err := core.RunMatrix(ctx, suite, core.MatrixOptions{Seed: s, PlaceEffort: cfg.matrixEffort, Parallel: 2})
		if err != nil {
			return err
		}
		m.StripMetrics()
		if g["paper-matrix"][strconv.FormatInt(s, 10)], err = digestJSON(m.Reports); err != nil {
			return err
		}
	}
	for s := int64(1); s <= int64(cfg.sweepSeeds); s++ {
		pts, err := core.RunRoutingSweep(ctx, sweep, cells.GranularPLB(), cfg.capacities, core.SweepOptions{Seed: s})
		if err != nil {
			return err
		}
		if g["route-sweep"][strconv.FormatInt(s, 10)], err = digestJSON(pts); err != nil {
			return err
		}
	}
	for s := int64(1); s <= int64(cfg.clusterSeeds); s++ {
		body := mustJSON(server.MatrixRequest{Scale: "test", Seed: s, PlaceEffort: cfg.clusterEffort})
		env, _, err := post(client, ts.URL+"/v1/matrix?wait=1", body)
		if err != nil {
			return err
		}
		if g["cluster-matrix"][strconv.FormatInt(s, 10)], err = matrixDigest(env.Result); err != nil {
			return err
		}
	}
	for _, q := range serviceRequests(cfg) {
		res, err := core.Run(ctx, q, core.ExecOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", requestLabel(q), err)
		}
		res.Report.StripMetrics()
		if g["service-mix"][requestLabel(q)], err = digestJSON(res.Report); err != nil {
			return err
		}
	}
	enc, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
