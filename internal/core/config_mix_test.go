package core

import (
	"context"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/cells"
)

// TestFPUConfigMixUsesFlexibleRoles pins the packing-flexibility
// regression: without the RoleSimple2 flexibility the FPU's 2-input
// AND-family instances serialize on the granular PLB's single ND3WI
// slot and the Table 1 comparison inverts.
func TestFPUConfigMixUsesFlexibleRoles(t *testing.T) {
	for _, arch := range []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()} {
		rep, _, err := RunFlow(context.Background(), bench.FPU(6), Config{Arch: arch, Flow: FlowB, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: cfgs=%v FA=%d rows=%d cols=%d util=%.2f die=%.0f pert=%.1f",
			arch.Name, rep.ConfigCounts, rep.FullAdders, rep.Rows, rep.Cols, rep.Utilization, rep.DieArea, rep.Perturbation)
		if arch.Name == "granular-plb" {
			if rep.ConfigCounts["ND2"] == 0 {
				t.Error("no flexible ND2 instances: RoleSimple2 regressed")
			}
			if rep.FullAdders == 0 {
				t.Error("no full adders extracted from the FPU")
			}
		}
	}
}
