package main

import (
	"context"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsEmitEveryMetric runs every workload at toy size, untraced
// and traced, and checks each run's metrics against BENCHMARK.json:
// exactly the end-to-end metrics untraced, exactly the per-layer
// metrics traced, with matching units and valid names.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Fatalf("BENCHMARK.json workloads %q, harness %q", got, workloadNames())
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := newRun(toyConfig, 3, traced, 200*time.Millisecond, t.TempDir(), io.Discard)
			res, err := execute(context.Background(), w, r)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, m := range res.Metrics {
				if unit, ok := want[traced][name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s (%s) not in BENCHMARK.json with that unit", w.name, traced, name, m.Unit)
				}
				if !valid.MatchString(name) {
					t.Errorf("metric name %q is not valid", name)
				}
			}
			for name := range want[traced] {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: missing metric %s", w.name, traced, name)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestCompareFlagsRegression: identical results pass; for each
// end-to-end metric, a median worse by 1.2× its bound is flagged and
// one worse by 0.8× its bound is not.
func TestCompareFlagsRegression(t *testing.T) {
	spec := loadSpec(t)
	runs := func(scale float64) summary {
		return summarize("", []float64{100 * scale, 101 * scale, 99 * scale, 100 * scale, 100.5 * scale})
	}
	with := func(name string, scale float64) results {
		w := &workloadResults{EndToEnd: map[string]summary{}}
		for _, m := range spec.EndToEnd {
			w.EndToEnd[m.Name] = runs(1)
			if m.Name == name {
				w.EndToEnd[m.Name] = runs(scale)
			}
		}
		return results{Workloads: map[string]*workloadResults{"w": w}}
	}
	base := with("", 1)
	if n := compare(io.Discard, spec, base, base); n != 0 {
		t.Fatalf("identical results: %d regressions", n)
	}
	for _, m := range spec.EndToEnd {
		worse := func(k float64) float64 {
			if m.Better == "higher" {
				return 1 - k*m.Bound
			}
			return 1 + k*m.Bound
		}
		if n := compare(io.Discard, spec, base, with(m.Name, worse(1.2))); n != 1 {
			t.Errorf("%s worse by 1.2x its bound: %d regressions, want 1", m.Name, n)
		}
		if n := compare(io.Discard, spec, base, with(m.Name, worse(0.8))); n != 0 {
			t.Errorf("%s worse by 0.8x its bound: %d regressions, want 0", m.Name, n)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestGoldenCoversEveryInput: every input a full-size run can draw has
// a golden digest.
func TestGoldenCoversEveryInput(t *testing.T) {
	pools := map[string]int{"paper-matrix": fullConfig.matrixSeeds,
		"route-sweep": fullConfig.sweepSeeds, "cluster-matrix": fullConfig.clusterSeeds}
	for w, n := range pools {
		for seed := 1; seed <= n; seed++ {
			if len(goldenDigests[w][strconv.Itoa(seed)]) != 64 {
				t.Errorf("%s: no golden digest for seed %d", w, seed)
			}
		}
	}
	for _, q := range serviceRequests(fullConfig) {
		if len(goldenDigests["service-mix"][requestLabel(q)]) != 64 {
			t.Errorf("service-mix: no golden digest for %s", requestLabel(q))
		}
	}
}
