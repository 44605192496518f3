package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/cells"
)

// The exploration drivers are deterministic: the same results at any
// parallel width, with or without a stage cache, and the stability
// study agrees with the matrices it aggregates.

func equivalenceArchs() []*cells.PLBArch {
	return []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()}
}

func asJSON(t *testing.T, v any) []byte {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestGranularitySweepEquivalence(t *testing.T) {
	ctx := context.Background()
	d := bench.ALU(8)
	var first []byte
	for _, parallel := range []int{1, 4} {
		got, err := RunGranularitySweep(ctx, d, equivalenceArchs(), SweepOptions{Seed: 11, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if enc := asJSON(t, got); first == nil {
			first = enc
		} else if !bytes.Equal(first, enc) {
			t.Errorf("RunGranularitySweep(parallel=%d) differs from parallel=1", parallel)
		}
	}
}

func TestDomainExploreEquivalence(t *testing.T) {
	ctx := context.Background()
	domains := []bench.Design{bench.ALU(8), bench.FIR(4, 4)}
	var first []byte
	for _, parallel := range []int{1, 4} {
		got, err := RunDomainExplore(ctx, domains, equivalenceArchs(), SweepOptions{Seed: 3, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if enc := asJSON(t, got); first == nil {
			first = enc
		} else if !bytes.Equal(first, enc) {
			t.Errorf("RunDomainExplore(parallel=%d) differs from parallel=1", parallel)
		}
	}
}

// TestRoutingSweepEquivalence: a routing sweep over a stage cache —
// computing it, then restoring it — matches the uncached sweep.
func TestRoutingSweepEquivalence(t *testing.T) {
	ctx := context.Background()
	d := bench.ALU(8)
	arch := cells.GranularPLB()
	caps := []int{4, 16}
	plain, err := RunRoutingSweep(ctx, d, arch, caps, SweepOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stages := testStageCache(t)
	for pass := 0; pass < 2; pass++ {
		got, err := RunRoutingSweep(ctx, d, arch, caps, SweepOptions{Seed: 3, Stages: stages})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(asJSON(t, plain), asJSON(t, got)) {
			t.Errorf("cached RunRoutingSweep (pass %d) differs from the uncached sweep", pass)
		}
	}
	if stages.Stats()[StageRoute].Hits == 0 {
		t.Error("repeat routing sweep never restored its routing")
	}
}

// TestStabilityStudyEquivalence: a one-seed study at Parallel 4 reports
// exactly the claims of that seed's sequential matrix.
func TestStabilityStudyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix-per-seed study in -short mode")
	}
	ctx := context.Background()
	suite := bench.TestSuite()
	m, err := RunMatrix(ctx, suite, MatrixOptions{Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunStabilityStudy(ctx, suite, []int64{1}, StabilityOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Runs) != 1 || !bytes.Equal(asJSON(t, st.Runs[0]), asJSON(t, m.DeriveClaims())) {
		t.Errorf("RunStabilityStudy claims %+v differ from the matrix's %+v", st.Runs, m.DeriveClaims())
	}
}
