package core

import (
	"context"
	"reflect"
	"testing"

	"vpga/internal/bench"
)

// TestSweepTicketEquivalence: a granularity sweep rebuilt from tickets
// through ExecuteSweep — first arch pins the clock, later archs run
// pinned — matches RunGranularitySweep point for point.
func TestSweepTicketEquivalence(t *testing.T) {
	specs := DefaultSweepArchSpecs()[:3]
	resolved := DefaultSweepArchs()[:3]

	d := bench.TestSuite().ALU
	want, err := RunGranularitySweep(context.Background(), d, resolved, SweepOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	plan := SweepPlan{Design: "alu", Scale: "test", Seed: 5, Archs: specs}
	tickets := CellRunner{Lane: func(_ float64, body func(run CellFunc)) {
		body(func(c Cell) (*Report, error) {
			res, err := Run(context.Background(), plan.Ticket(c), ExecOptions{})
			if err != nil {
				return nil, err
			}
			return res.Report, nil
		})
	}}
	reps, err := ExecuteSweep(resolved, tickets)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]SweepPoint, len(reps))
	for i, rep := range reps {
		got[i] = SweepPointFrom(resolved[i], rep)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ticketed sweep diverged:\nticket %+v\nmono   %+v", got, want)
	}
}

// TestMatrixPlanEnumeration pins the canonical cell order and the
// clock-pinning coordinates the merge logic depends on.
func TestMatrixPlanEnumeration(t *testing.T) {
	plan := MatrixPlan{Scale: "test", Seed: 1}
	pin := plan.PinTicket("fpu")
	if pin.Design != "fpu" || pin.Arch.Kind != "granular" || pin.Flow != "a" || pin.ClockPeriod != 0 {
		t.Fatalf("pin ticket %+v", pin)
	}
	deps := plan.DependentTickets("fpu", 1234.5)
	wantCoords := [][2]string{
		{"granular-plb", "flow b"},
		{"lut-plb", "flow a"},
		{"lut-plb", "flow b"},
	}
	if len(deps) != len(wantCoords) {
		t.Fatalf("got %d dependent cells, want %d", len(deps), len(wantCoords))
	}
	for i, cell := range deps {
		if cell.ArchName != wantCoords[i][0] || cell.Flow != wantCoords[i][1] {
			t.Fatalf("cell %d at (%s, %s), want (%s, %s)",
				i, cell.ArchName, cell.Flow, wantCoords[i][0], wantCoords[i][1])
		}
		if cell.Req.ClockPeriod != 1234.5 {
			t.Fatalf("cell %d clock %g not pinned", i, cell.Req.ClockPeriod)
		}
		if _, err := cell.Req.CacheKey(); err != nil {
			t.Fatalf("cell %d has no content address: %v", i, err)
		}
	}
	// The spelled-out arch names are what the kinds resolve to.
	for i, kind := range MatrixArchKinds() {
		arch, err := ArchSpec{Kind: kind}.Resolve()
		if err != nil || arch.Name != MatrixArchNames()[i] {
			t.Fatalf("arch kind %q resolves to %v (%v), want %q", kind, arch, err, MatrixArchNames()[i])
		}
	}
	// Defect knobs propagate and normalize like MatrixRequest's.
	dp := MatrixPlan{Scale: "test", DefectRate: 0.01, DefectSeed: 3}
	if req := dp.PinTicket("alu"); req.DefectRate != 0.01 || req.RepairBudget != DefaultRepairBudget {
		t.Fatalf("defect pin ticket %+v", req)
	}
}

// TestDefaultSweepArchSpecsMatchFamily: the declarative spec family
// resolves to exactly the architectures DefaultSweepArchs serves.
func TestDefaultSweepArchSpecsMatchFamily(t *testing.T) {
	specs := DefaultSweepArchSpecs()
	archs := DefaultSweepArchs()
	if len(specs) != len(archs) {
		t.Fatalf("%d specs vs %d archs", len(specs), len(archs))
	}
	for i, spec := range specs {
		arch, err := spec.Resolve()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if arch.Name != archs[i].Name || arch.Area != archs[i].Area ||
			arch.SlotSummary() != archs[i].SlotSummary() {
			t.Fatalf("spec %d resolves to %s/%s, family has %s/%s",
				i, arch.Name, arch.SlotSummary(), archs[i].Name, archs[i].SlotSummary())
		}
	}
}
