package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/cells"
)

// stripRuntime clears the wall-clock-dependent report fields so
// reports can be compared across scheduling orders. It delegates to
// the shared StripMetrics helper the determinism suite standardizes
// on.
func stripRuntime(m *Matrix) {
	m.StripMetrics()
}

// TestRunMatrixParallelDeterminism: for a fixed seed, the matrix must
// produce identical reports at parallelism 1 and parallelism 4, and
// Progress must fire exactly once per run in both modes.
func TestRunMatrixParallelDeterminism(t *testing.T) {
	suite := bench.Suite{
		ALU:      bench.ALU(8),
		Firewire: bench.Firewire(4),
		FPU:      bench.FPU(4),
		Switch:   bench.Switch(2, 4, 2),
	}
	run := func(parallel int) (*Matrix, int) {
		var mu sync.Mutex
		lines := 0
		m, err := RunMatrix(context.Background(), suite, MatrixOptions{
			Seed: 7, PlaceEffort: 2, Parallel: parallel,
			Progress: func(string) { mu.Lock(); lines++; mu.Unlock() },
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		stripRuntime(m)
		return m, lines
	}
	seq, seqLines := run(1)
	par, parLines := run(4)

	wantRuns := len(suite.All()) * 2 * 2
	if seqLines != wantRuns || parLines != wantRuns {
		t.Fatalf("progress lines: sequential %d, parallel %d, want %d", seqLines, parLines, wantRuns)
	}
	for design, byArch := range seq.Reports {
		for arch, byFlow := range byArch {
			for flow, want := range byFlow {
				got := par.Reports[design][arch][flow]
				if got == nil {
					t.Fatalf("%s/%s/%s missing from parallel run", design, arch, flow)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%s diverged:\n  sequential %+v\n  parallel   %+v",
						design, arch, flow, want, got)
				}
			}
		}
	}
}

// TestRunMatrixParallelError: a failing run must surface its error and
// not deadlock the pool.
func TestRunMatrixParallelError(t *testing.T) {
	suite := bench.Suite{
		ALU:      bench.ALU(4),
		Firewire: bench.Design{Name: "broken", RTL: "module m(invalid"},
		FPU:      bench.FPU(4),
		Switch:   bench.Switch(2, 4, 2),
	}
	if _, err := RunMatrix(context.Background(), suite, MatrixOptions{Seed: 1, PlaceEffort: 1, Parallel: 4}); err == nil {
		t.Fatal("expected an error from the broken design")
	}
}

// TestPlaceWorkersBitIdentical: a flow run's report is bit-identical
// at any annealer worker count — PlaceWorkers is a pure throughput
// knob, never part of a run's identity or cache key.
func TestPlaceWorkersBitIdentical(t *testing.T) {
	d := bench.ALU(8)
	run := func(workers int) *Report {
		rep, _, err := RunFlow(context.Background(), d, Config{
			Arch: cells.GranularPLB(), Flow: FlowB, Seed: 5, PlaceEffort: 3,
			PlaceWorkers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rep.StripMetrics()
		return rep
	}
	want := run(1)
	for _, w := range []int{2, 4, 8} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d report diverged:\n  workers=1: %+v\n  workers=%d: %+v",
				w, want, w, got)
		}
	}
}
