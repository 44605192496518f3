package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/defect"
)

// fakeCells is a CellRunner backend that runs no flow: each cell
// returns a synthetic report — MaxArrival 1000·(design+1), a pin's own
// clock 900, Runtime design+1 ms — or fails when fail says so, after a
// random pause that shuffles completion order. It records every lane's
// cells in order, and its weight.
type fakeCells struct {
	designs []bench.Design
	fail    func(Cell) bool

	mu      sync.Mutex
	lanes   [][]Cell
	weights []float64
}

func (f *fakeCells) runner(par int) CellRunner {
	sem := make(chan struct{}, par)
	return CellRunner{Lane: func(weight float64, body func(run CellFunc)) {
		sem <- struct{}{}
		defer func() { <-sem }()
		var lane []Cell
		body(func(c Cell) (*Report, error) {
			time.Sleep(time.Duration(rand.Intn(300)) * time.Microsecond)
			lane = append(lane, c)
			if f.fail != nil && f.fail(c) {
				return nil, errors.New("injected failure")
			}
			clock := c.Clock
			if clock == 0 {
				clock = 900
			}
			return &Report{
				Design: f.designs[c.Design].Name, Arch: MatrixArchNames()[c.Arch], Flow: c.Flow.String(),
				DieArea: float64(100*c.Design + 10*c.Arch + int(c.Flow)), ClockPeriod: clock,
				AvgTopSlack: 50, WorstSlack: 10, MaxArrival: float64(1000 * (c.Design + 1)),
				Runtime: time.Duration(c.Design+1) * time.Millisecond,
			}, nil
		})
		f.mu.Lock()
		f.lanes = append(f.lanes, lane)
		f.weights = append(f.weights, weight)
		f.mu.Unlock()
	}}
}

// TestExecuteMatrixRules checks the executor's cross-cell rules with a
// fake runner at Parallel 1 and 4: cell order and lanes, lane weights,
// the pinned clock and the pin's Reclock, the three skipped entries
// after a failed pin, ledger order and progress order.
func TestExecuteMatrixRules(t *testing.T) {
	designs := smallSuite().All()
	broken := 2 // FPU: its pin fails
	var want []string
	for _, par := range []int{1, 4} {
		f := &fakeCells{designs: designs, fail: func(c Cell) bool {
			return c.Design == broken && c.Arch == 0 && c.Flow == FlowA
		}}
		var lines []string
		m, err := ExecuteMatrix(context.Background(), designs, f.runner(par), true,
			func(s string) { lines = append(lines, s) })
		if err != nil {
			t.Fatalf("par=%d: keepGoing returned %v", par, err)
		}

		// Lanes: each (design, arch) runs on one lane in flow order. Every
		// lane of a design other than the pin's runs at the pinned
		// clock, and the pin's lane starts at clock 0. A pin's lane
		// waits at weight +Inf, every other lane at its pin report's
		// Runtime.
		lanes := map[string]bool{}
		for li, lane := range f.lanes {
			if len(lane) == 0 {
				t.Fatalf("par=%d: empty lane", par)
			}
			di := lane[0].Design
			weight := float64(time.Duration(di+1) * time.Millisecond)
			if lane[0].Arch == 0 && lane[0].Flow == FlowA {
				weight = math.Inf(1)
			}
			if f.weights[li] != weight {
				t.Fatalf("par=%d: lane %v has weight %g, want %g", par, lane, f.weights[li], weight)
			}
			clock := 1.2 * float64(1000*(di+1))
			var names []string
			for k, c := range lane {
				if c.Design != di {
					t.Fatalf("lane %v spans designs", lane)
				}
				pin := c.Arch == 0 && c.Flow == FlowA
				if pin && (k != 0 || c.Clock != 0) || !pin && c.Clock != clock {
					t.Fatalf("cell %+v at clock %g, want %g (pin at 0, first on its lane)", c, c.Clock, clock)
				}
				names = append(names, MatrixCellLabel(designs[di].Name, c))
			}
			lanes[strings.Join(names, " -> ")] = true
		}
		var wantLanes []string
		for di, d := range designs {
			pin := d.Name + "/granular-plb/flow a (pin)"
			if di == broken {
				wantLanes = append(wantLanes, pin)
			} else {
				wantLanes = append(wantLanes, pin+" -> "+d.Name+"/granular-plb/flow b",
					d.Name+"/lut-plb/flow a -> "+d.Name+"/lut-plb/flow b")
			}
		}
		if len(lanes) != len(wantLanes) || len(f.lanes) != len(wantLanes) {
			t.Fatalf("par=%d: lanes %v, want %v", par, lanes, wantLanes)
		}
		for _, l := range wantLanes {
			if !lanes[l] {
				t.Fatalf("par=%d: missing lane %q in %v", par, l, lanes)
			}
		}

		// The pin's report is reclocked to 1.2x its arrival.
		for di, d := range designs {
			pin := m.Get(d.Name, "granular-plb", FlowA)
			if di == broken {
				if pin != nil {
					t.Fatal("failed pin holds a report")
				}
				continue
			}
			clock := 1.2 * pin.MaxArrival
			if pin.ClockPeriod != clock || pin.AvgTopSlack != 50+(clock-900) || pin.WorstSlack != 10+(clock-900) {
				t.Fatalf("pin %s not reclocked to %g: %+v", d.Name, clock, pin)
			}
		}

		// The ledger: the failed pin, then its three skipped
		// dependents, in (design, arch, flow) order.
		var ledger []string
		for _, fe := range m.Errors {
			ledger = append(ledger, fmt.Sprintf("%s/%s/%s:%s", fe.Design, fe.Arch, fe.Flow, fe.Stage))
		}
		wantLedger := []string{"FPU/granular-plb/flow a:flow", "FPU/granular-plb/flow b:skipped",
			"FPU/lut-plb/flow a:skipped", "FPU/lut-plb/flow b:skipped"}
		if !reflect.DeepEqual(ledger, wantLedger) {
			t.Fatalf("par=%d: ledger %v, want %v", par, ledger, wantLedger)
		}

		// Progress: one line per report, in cell order, identical
		// at every setting.
		if len(lines) != 12 {
			t.Fatalf("got %d progress lines, want 12", len(lines))
		}
		if par == 1 {
			want = lines
		} else if !reflect.DeepEqual(lines, want) {
			t.Fatalf("par=%d: progress order %q, want %q", par, lines, want)
		}
	}
	for i, line := range want {
		di := i / 4
		if di >= broken {
			di++ // the broken design has no lines
		}
		if !strings.HasPrefix(line, designs[di].Name+" ") {
			t.Fatalf("line %d = %q, want design %s", i, line, designs[di].Name)
		}
	}
}

// TestExecuteMatrixAbortReturnsLowestFailure: without keepGoing the
// executor returns the lowest failing (design, arch, flow) cell at any
// scheduling — it always runs, since only failures sorting before a
// cell skip it — and ledgers no skipped entries.
func TestExecuteMatrixAbortReturnsLowestFailure(t *testing.T) {
	designs := smallSuite().All()
	failing := map[string]bool{
		"FPU/lut-plb/flow a":           true, // a dependent: FPU's pin succeeds
		"Firewire/granular-plb/flow a": true, // a pin, but "Firewire" sorts after "FPU"
		"NetworkSwitch/lut-plb/flow b": true,
	}
	for _, par := range []int{1, 4} {
		for run := 0; run < 10; run++ {
			f := &fakeCells{designs: designs, fail: func(c Cell) bool {
				return failing[designs[c.Design].Name+"/"+MatrixArchNames()[c.Arch]+"/"+c.Flow.String()]
			}}
			m, err := ExecuteMatrix(context.Background(), designs, f.runner(par), false, nil)
			var fe *FlowError
			if !errors.As(err, &fe) || fe.Design != "FPU" || fe.Arch != "lut-plb" || fe.Flow != "flow a" {
				t.Fatalf("par=%d run %d: returned %v, want FPU/lut-plb/flow a", par, run, err)
			}
			if m.Errors[0] != fe {
				t.Fatalf("returned error is not the first ledger entry: %v", m.Errors)
			}
			for _, e := range m.Errors {
				if e.Stage == "skipped" {
					t.Fatalf("aborting matrix ledgered a skipped cell: %v", e)
				}
			}
		}
	}
}

// TestRunMatrixErrorIsLowestFailure: on a fabric where every pin
// fails, RunMatrix returns the same error — the lowest failing cell,
// ALU's pin — on every run at Parallel 1 and 4.
func TestRunMatrixErrorIsLowestFailure(t *testing.T) {
	for _, par := range []int{1, 4} {
		for run := 0; run < 10; run++ {
			_, err := RunMatrix(context.Background(), bench.TestSuite(), MatrixOptions{
				Seed: 1, PlaceEffort: 1, Parallel: par,
				Defects: defect.New(3, 0.9), RepairBudget: -1,
			})
			var fe *FlowError
			if !errors.As(err, &fe) || fe.Design != "ALU" || fe.Arch != "granular-plb" || fe.Flow != "flow a" {
				t.Fatalf("par=%d run %d: returned %v, want ALU/granular-plb/flow a", par, run, err)
			}
		}
	}
}

// TestExecuteSweepLowestFailure: a sweep runs every cell — the pin at
// clock 0, the rest at its ClockPeriod — and returns the lowest
// failing index's error, labeled with its arch.
func TestExecuteSweepLowestFailure(t *testing.T) {
	var archs []*cells.PLBArch
	for i := 0; i < 4; i++ {
		archs = append(archs, &cells.PLBArch{Name: fmt.Sprintf("a%d", i)})
	}
	for run := 0; run < 10; run++ {
		var mu sync.Mutex
		ran := map[int]float64{}
		r := CellRunner{Lane: func(_ float64, body func(run CellFunc)) {
			body(func(c Cell) (*Report, error) {
				time.Sleep(time.Duration(rand.Intn(300)) * time.Microsecond)
				mu.Lock()
				ran[c.Arch] = c.Clock
				mu.Unlock()
				if c.Arch >= 2 {
					return nil, &FlowError{Design: "d", Arch: archs[c.Arch].Name, Flow: "flow b", Stage: "pack", Err: errors.New("boom")}
				}
				return &Report{ClockPeriod: 1234}, nil
			})
		}}
		_, err := ExecuteSweep(archs, r)
		var fe *FlowError
		if err == nil || !strings.HasPrefix(err.Error(), "sweep a2: ") || !errors.As(err, &fe) || fe.Stage != "pack" {
			t.Fatalf("run %d: sweep error %v, want the a2 pack failure", run, err)
		}
		if !reflect.DeepEqual(ran, map[int]float64{0: 0, 1: 1234, 2: 1234, 3: 1234}) {
			t.Fatalf("run %d: cells ran at %v", run, ran)
		}
	}
}

// TestParseFlowError: a rendered *FlowError parses back into one that
// renders identically with the same fields; anything else becomes the
// generic "flow" entry asFlowError makes of an unstructured error.
func TestParseFlowError(t *testing.T) {
	inner := &FlowError{Design: "ALU", Arch: "lut-plb", Flow: "flow b", Stage: "route",
		Err: errors.New("net 3 unroutable (overflow 2): no path")}
	for _, fe := range []*FlowError{
		inner,
		{Design: "ALU", Arch: "lut-plb", Flow: "flow b", Stage: "repair", Attempt: 3, Err: inner},
		{Design: "FPU", Arch: "granular-plb", Flow: "flow a", Stage: "timeout", Err: context.DeadlineExceeded},
	} {
		got := ParseFlowError(fe.Design, fe.Arch, fe.Flow, fe.Stage, fe.Error())
		if got.Error() != fe.Error() || got.Stage != fe.Stage || got.Attempt != fe.Attempt ||
			got.Design != fe.Design || got.Arch != fe.Arch || got.Flow != fe.Flow {
			t.Fatalf("parsed %+v (%q), want %+v (%q)", got, got, fe, fe)
		}
	}
	plain := ParseFlowError("ALU", "lut-plb", "flow b", "", "decoding: unexpected EOF")
	if want := asFlowError("ALU", "lut-plb", "flow b", errors.New("decoding: unexpected EOF")); plain.Error() != want.Error() || plain.Stage != "flow" {
		t.Fatalf("unstructured message parsed as %+v, want %+v", plain, want)
	}
}

// FuzzParseFlowError: whatever the coordinates, stage, attempt and
// cause, a rendered *FlowError parses back into one that renders
// identically, and any other message parses without a panic.
func FuzzParseFlowError(f *testing.F) {
	f.Add("ALU", "lut-plb", "flow b", "route", 0, "net 3 unroutable (overflow 2): no path")
	f.Add("ALU", "lut-plb", "flow b", "repair", 3, "core: ALU/lut-plb/flow b: route (attempt 0): no path")
	f.Add("FPU", "granular-plb", "flow a", "timeout", -1, "context deadline exceeded")
	f.Add("", "", "", "", 0, "): (attempt 7): ")
	f.Fuzz(func(t *testing.T, design, arch, flow, stage string, attempt int, cause string) {
		fe := &FlowError{Design: design, Arch: arch, Flow: flow, Stage: stage, Attempt: attempt, Err: errors.New(cause)}
		if got := ParseFlowError(design, arch, flow, stage, fe.Error()); got.Error() != fe.Error() {
			t.Fatalf("%q parsed back as %q", fe.Error(), got.Error())
		}
		ParseFlowError(design, arch, flow, stage, cause)
	})
}
