package route

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/place"
)

// goldenPath holds the SHA-256 of Result.MarshalJSON and of the
// AssignTracks output for every golden case, taken from the router
// before its A* kernel was last rewritten. A kernel change that keeps
// every pop and every parent choice leaves all of them unchanged.
var goldenPath = filepath.Join("testdata", "golden.json")

// goldenCase is one routing problem of the golden set.
type goldenCase struct {
	name string
	prob *place.Problem
	opts Options
}

// deadWall kills the horizontal tracks of a vertical band through the
// die's middle, leaving a corridor along the top edge. A search whose
// window the wall cuts finds no path, so routeNet falls back to a
// full-grid search.
func deadWall(horizontal bool, xn, yn float64) bool {
	return horizontal && xn > 0.45 && xn < 0.55 && yn < 0.85
}

// viaCenter marks the die's central square as via-faulted.
func viaCenter(xn, yn float64) bool {
	return xn > 0.3 && xn < 0.7 && yn > 0.3 && yn < 0.7
}

// goldenCases builds the golden set: three designs (the package's
// small datapath and the test-scale ALU and Firewire), four capacities
// (2, 4, 8 and the derived width) and five fabric settings (clean, via
// faults, a coarser grid, widened channels and a dead wall).
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	suite := bench.TestSuite()
	designs := []struct {
		name string
		prob *place.Problem
	}{
		{"src", prepPlacement(t, src)},
		{"alu", prepPlacement(t, suite.ALU.RTL)},
		{"firewire", prepPlacement(t, suite.Firewire.RTL)},
	}
	settings := []struct {
		name string
		opts Options
	}{
		{"clean", Options{}},
		{"via", Options{Faults: testFaults{via: viaCenter}}},
		{"cells2", Options{CellsScale: 2}},
		{"capscale1.5", Options{CapacityScale: 1.5}},
		{"deadwall", Options{Faults: testFaults{dead: deadWall}}},
	}
	var cases []goldenCase
	for _, d := range designs {
		for _, capacity := range []int{2, 4, 8, 0} {
			for _, s := range settings {
				opts := s.opts
				opts.Capacity = capacity
				capName := fmt.Sprint(capacity)
				if capacity == 0 {
					capName = "derived"
				}
				cases = append(cases, goldenCase{
					name: d.name + "/cap" + capName + "/" + s.name,
					prob: d.prob, opts: opts,
				})
			}
		}
	}
	return cases
}

// goldenDigest is one case's entry in the golden file.
type goldenDigest struct {
	Result string `json:"result"`
	Tracks string `json:"tracks"`
}

func digestOf(t *testing.T, res *Result) goldenDigest {
	t.Helper()
	sum := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	return goldenDigest{Result: sum(res), Tracks: sum(res.AssignTracks())}
}

// TestRouteGoldens routes every golden case cold and through one pool
// shared by all cases (so it is dirtied by other shapes and congested
// runs), and asserts both digests of both runs against the committed
// goldens. The Firewire dead-wall case at capacity 8 must also reach
// the full-grid fallback.
func TestRouteGoldens(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	fallbacks := 0
	fallbackAudit = func() { fallbacks++ }
	defer func() { fallbackAudit = nil }()

	cases := goldenCases(t)
	if len(want) != len(cases) {
		t.Errorf("golden file has %d cases, the test builds %d", len(want), len(cases))
	}
	pool := NewPool()
	for _, tc := range cases {
		w, ok := want[tc.name]
		if !ok {
			t.Errorf("%s: no golden digest", tc.name)
			continue
		}
		fallbacks = 0
		for _, p := range []*Pool{nil, pool} {
			opts := tc.opts
			opts.Pool = p
			res, err := Route(tc.prob, opts)
			if err != nil {
				t.Fatalf("%s (pooled %v): %v", tc.name, p != nil, err)
			}
			if got := digestOf(t, res); got != w {
				t.Errorf("%s (pooled %v): digests %+v, golden %+v", tc.name, p != nil, got, w)
			}
		}
		if tc.name == "firewire/cap8/deadwall" {
			if fallbacks == 0 {
				t.Errorf("%s: no windowed search fell back to the full grid", tc.name)
			}
			t.Logf("%s: %d full-grid fallbacks over two runs", tc.name, fallbacks)
		}
	}
}

// TestRouteOracle checks every golden case's result with an oracle
// that shares no code with the router: it decodes edges, bins pins and
// samples faults itself.
func TestRouteOracle(t *testing.T) {
	for _, tc := range goldenCases(t) {
		res, err := Route(tc.prob, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := checkRoutes(tc.prob, res, tc.opts.Faults); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// checkRoutes is the independent route oracle. It asserts that
//   - each net's edges form one tree (|E| = |V|-1, connected) that
//     contains every pin's bin;
//   - the per-edge usage arrays equal the edge counts over all nets;
//   - Overflow is the summed excess over capacity, so a zero overflow
//     means every edge is within capacity;
//   - no used edge is dead under the fault model;
//   - NetLength is |E| edge lengths, and each SinkDist is the sink's
//     depth in the tree times the edge length, summed the way a
//     breadth-first walk from the driver adds it.
func checkRoutes(prob *place.Problem, res *Result, faults FaultModel) error {
	nx, ny := res.CellsX, res.CellsY
	capacity := res.Capacity()
	if len(res.hEdges) != (nx-1)*ny || len(res.vEdges) != nx*(ny-1) {
		return fmt.Errorf("usage arrays %d/%d for a %dx%d grid", len(res.hEdges), len(res.vEdges), nx, ny)
	}
	if len(res.netEdges) != len(prob.Nets) {
		return fmt.Errorf("%d edge lists for %d nets", len(res.netEdges), len(prob.Nets))
	}
	type cell struct{ x, y int }
	pinBin := func(oi int32) cell {
		o := prob.Objs[oi]
		bx, by := int(o.X/res.BinW), int(o.Y/res.BinH)
		return cell{min(max(bx, 0), nx-1), min(max(by, 0), ny-1)}
	}
	hCount := make([]int, len(res.hEdges))
	vCount := make([]int, len(res.vEdges))
	edgeLen := (res.BinW + res.BinH) / 2
	fx, fy := 1/float64(nx), 1/float64(ny)
	for ni, net := range prob.Nets {
		adj := map[cell][]cell{}
		for _, e := range res.netEdges[ni] {
			i := int(e.idx)
			var a, b cell
			var xn, yn float64
			if e.horizontal {
				if i < 0 || i >= len(hCount) {
					return fmt.Errorf("net %d: horizontal edge %d out of range", ni, i)
				}
				hCount[i]++
				a = cell{i % (nx - 1), i / (nx - 1)}
				b = cell{a.x + 1, a.y}
				xn, yn = (float64(a.x)+1.0)*fx, (float64(a.y)+0.5)*fy
			} else {
				if i < 0 || i >= len(vCount) {
					return fmt.Errorf("net %d: vertical edge %d out of range", ni, i)
				}
				vCount[i]++
				a = cell{i % nx, i / nx}
				b = cell{a.x, a.y + 1}
				xn, yn = (float64(a.x)+0.5)*fx, (float64(a.y)+1.0)*fy
			}
			if faults != nil && faults.DeadTrack(e.horizontal, xn, yn) {
				return fmt.Errorf("net %d: uses dead edge %v-%v", ni, a, b)
			}
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		root := pinBin(net.Objs[0])
		verts := map[cell]bool{root: true}
		for v := range adj {
			verts[v] = true
		}
		for _, oi := range net.Objs[1:] {
			verts[pinBin(oi)] = true
		}
		if nE := len(res.netEdges[ni]); nE != len(verts)-1 {
			return fmt.Errorf("net %d: %d edges over %d cells is not a tree", ni, nE, len(verts))
		}
		depth := map[cell]int{root: 0}
		queue := []cell{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if _, seen := depth[w]; !seen {
					depth[w] = depth[v] + 1
					queue = append(queue, w)
				}
			}
		}
		if len(depth) != len(verts) {
			return fmt.Errorf("net %d: tree is disconnected (%d of %d cells reached)", ni, len(depth), len(verts))
		}
		if want := float64(len(res.netEdges[ni])) * edgeLen; res.NetLength[ni] != want {
			return fmt.Errorf("net %d: length %g, want %g", ni, res.NetLength[ni], want)
		}
		if len(res.SinkDist[ni]) != len(net.Objs)-1 {
			return fmt.Errorf("net %d: %d sink distances for %d sinks", ni, len(res.SinkDist[ni]), len(net.Objs)-1)
		}
		for k, oi := range net.Objs[1:] {
			want := 0.0
			for range depth[pinBin(oi)] {
				want += edgeLen
			}
			if res.SinkDist[ni][k] != want {
				return fmt.Errorf("net %d sink %d: distance %g, tree depth gives %g", ni, k, res.SinkDist[ni][k], want)
			}
		}
	}
	over := 0
	for _, uc := range []struct {
		use   []int16
		count []int
	}{{res.hEdges, hCount}, {res.vEdges, vCount}} {
		for i, u := range uc.use {
			if int(u) != uc.count[i] {
				return fmt.Errorf("edge %d: usage %d, %d nets hold it", i, u, uc.count[i])
			}
			over += max(int(u)-capacity, 0)
		}
	}
	// A sum of non-negative excesses is zero only if every edge is
	// within capacity, so this also checks zero-overflow results.
	if res.Overflow != over {
		return fmt.Errorf("overflow %d, usage gives %d", res.Overflow, over)
	}
	return nil
}
