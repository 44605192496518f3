package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/route"
)

// A wrapped *FlowError must keep its real failing stage in the ledger
// instead of degrading to the generic "flow" (asFlowError used a
// direct type assertion, which a fmt.Errorf %w wrapper defeats).
func TestAsFlowErrorUnwraps(t *testing.T) {
	arch := cells.GranularPLB()
	inner := &FlowError{Design: "ALU", Arch: arch.Name, Flow: "flow b",
		Stage: "route", Err: errors.New("overflow 12")}
	wrapped := fmt.Errorf("sweep point 3: %w", inner)

	fe := asFlowError("ALU", arch.Name, "flow b", wrapped)
	if fe != inner {
		t.Fatalf("wrapped *FlowError not recovered: got %+v", fe)
	}
	if fe.Stage != "route" {
		t.Fatalf("stage = %q, want the original %q", fe.Stage, "route")
	}

	// A plain error still lands in the generic bucket.
	plain := asFlowError("ALU", arch.Name, "flow a", errors.New("boom"))
	if plain.Stage != "flow" {
		t.Fatalf("plain error stage = %q, want %q", plain.Stage, "flow")
	}
}

// wrappedDeadlineCtx models a custom context whose Err wraps
// context.DeadlineExceeded instead of returning it directly.
type wrappedDeadlineCtx struct{ context.Context }

func (wrappedDeadlineCtx) Err() error {
	return fmt.Errorf("deadline passed at shard boundary: %w", context.DeadlineExceeded)
}

// A wrapped deadline error must classify as "timeout", not
// "cancelled" (ctxFlowErr compared err == context.DeadlineExceeded).
func TestCtxFlowErrWrappedDeadline(t *testing.T) {
	d := bench.ALU(4)
	cfg := Config{Arch: cells.GranularPLB(), Flow: FlowA}

	fe := ctxFlowErr(wrappedDeadlineCtx{context.Background()}, d, cfg)
	if fe == nil || fe.Stage != "timeout" {
		t.Fatalf("wrapped deadline classified as %+v, want stage %q", fe, "timeout")
	}

	// Real deadline and real cancellation keep their classifications.
	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-expired.Done()
	if fe := ctxFlowErr(expired, d, cfg); fe == nil || fe.Stage != "timeout" {
		t.Fatalf("real deadline classified as %+v", fe)
	}
	cancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if fe := ctxFlowErr(cancelled, d, cfg); fe == nil || fe.Stage != "cancelled" {
		t.Fatalf("cancellation classified as %+v", fe)
	}
	if fe := ctxFlowErr(context.Background(), d, cfg); fe != nil {
		t.Fatalf("live context classified as %+v, want nil", fe)
	}
}

// The repair ladder's exhaustion error has the same deadline
// classification requirement.
func TestRepairLadderWrappedDeadline(t *testing.T) {
	run := func(context.Context, bench.Design, Config) (*Report, error) {
		return nil, &route.RouteError{Net: 1, Iteration: 1, Overflow: 3, Err: errors.New("unroutable")}
	}
	_, err := runFlowRepairWith(wrappedDeadlineCtx{context.Background()}, bench.ALU(4),
		Config{Arch: cells.GranularPLB(), Flow: FlowB}, run)
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != "timeout" {
		t.Fatalf("repair exhaustion under wrapped deadline = %v, want stage %q", err, "timeout")
	}
}

// The Progress callback must not hold the pool mutex: a callback that
// blocks until every run has *started* can only return if workers keep
// flowing while it is in flight. Under the old implementation (callback
// under mu) the design goroutines could never fan out their dependent
// runs past the first blocked callback, so this test deadlocked.
func TestProgressCallbackDoesNotBlockPool(t *testing.T) {
	suite := smallSuite()
	wantRuns := int32(len(suite.All()) * 2 * 2)

	var started atomic.Int32
	allStarted := make(chan struct{})
	testPanicHook = func(string, string, FlowKind) {
		if started.Add(1) == wantRuns {
			close(allStarted)
		}
	}
	defer func() { testPanicHook = nil }()

	var lines atomic.Int32
	done := make(chan error, 1)
	go func() {
		_, err := RunMatrix(context.Background(), suite, MatrixOptions{
			Seed: 3, PlaceEffort: 1, Parallel: 4,
			Progress: func(string) {
				<-allStarted
				lines.Add(1)
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Minute):
		t.Fatal("matrix deadlocked: Progress callback serialized the worker pool")
	}
	if got := lines.Load(); got != wantRuns {
		t.Fatalf("progress lines = %d, want %d", got, wantRuns)
	}
}

// Progress lines arrive in canonical (design, arch, flow) order at any
// worker count: a sequential run and a 4-worker run produce the exact
// same line sequence.
func TestProgressLineOrdering(t *testing.T) {
	suite := smallSuite()
	capture := func(parallel int) []string {
		var mu sync.Mutex
		var lines []string
		_, err := RunMatrix(context.Background(), suite, MatrixOptions{
			Seed: 7, PlaceEffort: 1, Parallel: parallel,
			Progress: func(s string) { mu.Lock(); lines = append(lines, s); mu.Unlock() },
		})
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}
	a := capture(1)
	b := capture(4)
	if len(a) != len(suite.All())*4 {
		t.Fatalf("got %d lines, want %d", len(a), len(suite.All())*4)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("line %d differs between Parallel=1 and Parallel=4:\n  %q\n  %q", i, a[i], b[i])
		}
	}
	// Canonical cell order: designs in suite order, then
	// granular/a, granular/b, lut/a, lut/b within each design.
	cells4 := []struct{ arch, flow string }{
		{"granular-plb", "flow a"}, {"granular-plb", "flow b"},
		{"lut-plb", "flow a"}, {"lut-plb", "flow b"},
	}
	for i, line := range a {
		d := suite.All()[i/4]
		want := cells4[i%4]
		if strings.Fields(line)[0] != d.Name ||
			!strings.Contains(line, want.arch) || !strings.Contains(line, want.flow) {
			t.Fatalf("line %d = %q, want design %s %s %s", i, line, d.Name, want.arch, want.flow)
		}
	}
}
