package pack_test

import (
	"math/rand"
	"testing"

	"vpga/internal/cells"
	"vpga/internal/core"
	"vpga/internal/pack"
)

// TestHallTableMatchesOracles: on seeded random demands and PLB counts,
// the arch's Hall table (Fits and MinPLBs) must agree with the max-flow
// oracle, and with one PLB also with the backtracking matcher, on both
// paper archs and every arch of the granularity sweep.
func TestHallTableMatchesOracles(t *testing.T) {
	archs := append([]*cells.PLBArch{cells.LUTPLB(), cells.GranularPLB()}, core.DefaultSweepArchs()...)
	rng := rand.New(rand.NewSource(13))
	for _, arch := range archs {
		feasible := 0
		for trial := 0; trial < 3000; trial++ {
			n := 1 + rng.Intn(4)
			var d cells.Demand
			for r := range d {
				if rng.Intn(2) == 0 {
					d[r] = rng.Intn(2*n + 2)
				}
			}
			got := arch.Fits(&d, n)
			if want := pack.AggFeasibleOracle(arch, d, n); got != want {
				t.Fatalf("%s: Fits(%v, %d) = %v, max-flow oracle %v", arch.Name, d, n, got, want)
			}
			if got {
				feasible++
			}
			if n == 1 {
				if want := pack.CanPackOracle(arch, d); got != want {
					t.Fatalf("%s: Fits(%v, 1) = %v, backtracking oracle %v", arch.Name, d, got, want)
				}
			}
			minN, err := arch.MinPLBs(&d)
			switch {
			case err != nil:
				if pack.AggFeasibleOracle(arch, d, 1<<20) {
					t.Fatalf("%s: MinPLBs(%v) failed (%v) but 2^20 PLBs fit", arch.Name, d, err)
				}
			case !pack.AggFeasibleOracle(arch, d, minN) || (minN > 1 && pack.AggFeasibleOracle(arch, d, minN-1)):
				t.Fatalf("%s: MinPLBs(%v) = %d is not the smallest feasible count", arch.Name, d, minN)
			}
		}
		// Both answers must be well represented, or the test proves little.
		if feasible < 300 || feasible > 2700 {
			t.Errorf("%s: %d of 3000 random demands feasible; adjust the generator", arch.Name, feasible)
		}
	}
}
