package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"vpga/internal/bench"
	"vpga/internal/cells"
)

// Composite execution. The matrix and the sweeps are composites of
// flow runs ("cells") tied together by one rule: a clock-pinning cell
// runs first and its report fixes the clock every other cell runs at.
// ExecuteMatrix and ExecuteSweep own every rule that spans cells; a
// CellRunner owns how one cell runs. RunMatrix, RunGranularitySweep
// and RunDomainExplore pass local runners (pool slots, stage-cache
// tiers, supervised flow runs); the vpgad coordinator passes ticket
// runners that ship each cell to a worker node. Both therefore pin,
// skip, ledger and fail identically.

// Cell addresses one flow run of a composite by index: the design,
// the architecture and the flow, plus the clock it runs at — 0 on a
// clock-pinning cell, which derives its own.
type Cell struct {
	Design, Arch int
	Flow         FlowKind
	Clock        float64
}

// CellFunc runs one cell and returns its report.
type CellFunc func(Cell) (*Report, error)

// CellRunner executes composite cells for ExecuteMatrix and
// ExecuteSweep.
type CellRunner struct {
	// Lane runs body on one execution lane and returns when body does;
	// body calls run once per cell of the lane, in order. A local
	// runner holds a pool slot and a stage-cache tier for the lane's
	// lifetime; a ticket runner holds the worker node its previous cell
	// ran on, whose stage tier serves the next. weight estimates the
	// lane's work, for a runner that orders lanes waiting on a bounded
	// pool: ExecuteMatrix gives a design's pin lane +Inf, since every
	// other lane of the design waits on it, and each dependent lane its
	// pin report's Runtime; ExecuteSweep passes 0.
	Lane func(weight float64, body func(run CellFunc))
}

// ExecuteMatrix runs the Table 1/2 matrix over designs with runner r.
// It owns every rule that spans cells:
//
//   - cell order: designs in order, then (arch, flow) over
//     MatrixArchNames × {flow a, flow b};
//   - the pin: each design's granular / flow a cell runs first at clock
//     0, and its report is reclocked to 1.2× its post-layout arrival —
//     the one cycle time all four cells of the design run at, as in the
//     paper's tables;
//   - the lanes: one per (design, arch), flow a then flow b, so a
//     lane's runner can hand flow a's compacted netlist and placement
//     to flow b (the pin heads the granular lane);
//   - the ledger (Matrix.Errors) in (design, arch, flow) order, with
//     the three dependents of a failed pin entered as Stage "skipped"
//     when keepGoing is set;
//   - the returned error, the report map, and progress lines (one per
//     cell that produced a report) in cell order at any scheduling.
//
// Without keepGoing the matrix aborts: a cell is skipped once a failure
// that sorts before it is recorded, so the lowest failing cell always
// runs, and its error — the first ledger entry — is returned with the
// partial matrix. With keepGoing every cell runs and the error is nil.
// Cells that find ctx expired fail with Stage "timeout" or "cancelled".
func ExecuteMatrix(ctx context.Context, designs []bench.Design, r CellRunner, keepGoing bool, progress func(string)) (*Matrix, error) {
	x := &matrixRun{ctx: ctx, r: r, keepGoing: keepGoing, archs: MatrixArchNames(),
		m: &Matrix{Designs: designs, Reports: map[string]map[string]map[string]*Report{}}}
	// The report maps are built up front so cells only write leaves.
	for _, d := range designs {
		x.m.Reports[d.Name] = map[string]map[string]*Report{}
		for _, arch := range x.archs {
			x.m.Reports[d.Name][arch] = map[string]*Report{}
		}
	}
	// Progress: every cell owns a one-line slot its lane fills without
	// blocking — a report's summary, or "" — and one goroutine delivers
	// the slots in cell order, so callbacks stay serialized and ordered
	// at any worker count, and a slow (even matrix-re-entrant) callback
	// never holds up a lane.
	if progress != nil {
		x.lines = make([]chan string, 2*len(x.archs)*len(designs))
		for i := range x.lines {
			x.lines[i] = make(chan string, 1)
		}
		x.wg.Add(1)
		go func() {
			defer x.wg.Done()
			for _, slot := range x.lines {
				if line := <-slot; line != "" {
					progress(line)
				}
			}
		}()
	}
	for di := range designs {
		x.spawn(math.Inf(1), func(run CellFunc) { x.design(di, run) })
	}
	x.wg.Wait()
	sort.Slice(x.m.Errors, func(i, j int) bool { return ledgerLess(x.m.Errors[i], x.m.Errors[j]) })
	if len(x.m.Errors) > 0 && !keepGoing {
		return x.m, x.m.Errors[0]
	}
	return x.m, nil
}

// matrixCells enumerates design di's cells in canonical order: the
// clock-pinning granular / flow a cell at clock 0, then its three
// dependents at clock.
func matrixCells(di int, clock float64) []Cell {
	cells := make([]Cell, 0, 2*len(MatrixArchNames()))
	for ai := range MatrixArchNames() {
		for _, flow := range []FlowKind{FlowA, FlowB} {
			cells = append(cells, Cell{Design: di, Arch: ai, Flow: flow, Clock: clock})
		}
	}
	cells[0].Clock = 0
	return cells
}

// ledgerLess orders failures by (design, arch, flow): the order of
// Matrix.Errors and of the abort rule.
func ledgerLess(a, b *FlowError) bool {
	if a.Design != b.Design {
		return a.Design < b.Design
	}
	if a.Arch != b.Arch {
		return a.Arch < b.Arch
	}
	return a.Flow < b.Flow
}

// matrixRun is one ExecuteMatrix call in flight.
type matrixRun struct {
	ctx       context.Context
	r         CellRunner
	keepGoing bool
	archs     []string
	lines     []chan string // progress slots, by cell index; nil without Progress
	wg        sync.WaitGroup

	mu     sync.Mutex // guards the leaves of m.Reports, m.Errors and lowest
	m      *Matrix
	lowest *FlowError // the lowest recorded failure
}

// spawn runs body on a lane of its own.
func (x *matrixRun) spawn(weight float64, body func(run CellFunc)) {
	x.wg.Add(1)
	go func() {
		defer x.wg.Done()
		x.r.Lane(weight, body)
	}()
}

// design runs design di's pin on the caller's lane, then its
// dependents at the pinned clock: the pin's arch continues on this
// lane, and each other arch gets a lane of its own.
func (x *matrixRun) design(di int, run CellFunc) {
	cells := matrixCells(di, 0)
	pin := x.run(run, cells[0])
	if pin == nil {
		for _, c := range cells[1:] {
			if x.keepGoing {
				x.fail(x.flowError(c, "skipped", errors.New("clock-pinning run failed")))
			}
			x.deposit(c, "")
		}
		return
	}
	clock := 1.2 * pin.MaxArrival
	pin.Reclock(clock)
	x.store(cells[0], pin)

	var lanes [][]Cell // by arch; lanes[0] is the pin's
	for _, c := range matrixCells(di, clock)[1:] {
		if n := len(lanes); n > 0 && lanes[n-1][0].Arch == c.Arch {
			lanes[n-1] = append(lanes[n-1], c)
		} else {
			lanes = append(lanes, []Cell{c})
		}
	}
	for _, lane := range lanes[1:] {
		x.spawn(float64(pin.Runtime), func(run CellFunc) {
			for _, c := range lane {
				x.runStore(run, c)
			}
		})
	}
	for _, c := range lanes[0] {
		x.runStore(run, c)
	}
}

func (x *matrixRun) runStore(run CellFunc, c Cell) {
	if rep := x.run(run, c); rep != nil {
		x.store(c, rep)
	}
}

// run executes c on the lane and returns its report, or nil when the
// cell failed (and is ledgered) or the abort skipped it; either way
// its progress slot is filled.
func (x *matrixRun) run(run CellFunc, c Cell) *Report {
	if x.skip(c) {
		x.deposit(c, "")
		return nil
	}
	var rep *Report
	err := x.ctx.Err()
	if err != nil {
		err = x.flowError(c, ctxStage(err), err)
	} else {
		rep, err = run(c)
	}
	if err != nil {
		d, arch, flow := x.names(c)
		x.fail(asFlowError(d, arch, flow, err))
		x.deposit(c, "")
		return nil
	}
	return rep
}

// skip reports whether an aborting matrix has already recorded a
// failure that sorts before c.
func (x *matrixRun) skip(c Cell) bool {
	if x.keepGoing {
		return false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.lowest != nil && ledgerLess(x.lowest, x.flowError(c, "", nil))
}

func (x *matrixRun) fail(fe *FlowError) {
	x.mu.Lock()
	x.m.Errors = append(x.m.Errors, fe)
	if x.lowest == nil || ledgerLess(fe, x.lowest) {
		x.lowest = fe
	}
	x.mu.Unlock()
}

func (x *matrixRun) store(c Cell, rep *Report) {
	d, arch, flow := x.names(c)
	x.mu.Lock()
	x.m.Reports[d][arch][flow] = rep
	x.mu.Unlock()
	x.deposit(c, rep.summary())
}

// deposit fills c's progress slot with line ("" for a cell without a
// report); every cell deposits exactly once.
func (x *matrixRun) deposit(c Cell, line string) {
	if x.lines != nil {
		x.lines[(c.Design*len(x.archs)+c.Arch)*2+int(c.Flow)] <- line
	}
}

func (x *matrixRun) names(c Cell) (design, arch, flow string) {
	return x.m.Designs[c.Design].Name, x.archs[c.Arch], c.Flow.String()
}

func (x *matrixRun) flowError(c Cell, stage string, err error) *FlowError {
	d, arch, flow := x.names(c)
	return &FlowError{Design: d, Arch: arch, Flow: flow, Stage: stage, Err: err}
}

// ExecuteSweep runs a sweep over archs with runner r: cell 0 pins
// the clock — it runs at clock 0 and derives its own — and every
// later cell runs at that report's ClockPeriod, each on a lane of its
// own, all at once. Every cell runs even when one fails. It returns
// the reports in arch order, or the error of the lowest failing index
// labeled with its arch.
func ExecuteSweep(archs []*cells.PLBArch, r CellRunner) ([]*Report, error) {
	if len(archs) == 0 {
		return nil, nil
	}
	reps := make([]*Report, len(archs))
	errs := make([]error, len(archs))
	cell := func(i int, clock float64) {
		r.Lane(0, func(run CellFunc) {
			reps[i], errs[i] = run(Cell{Arch: i, Flow: FlowB, Clock: clock})
		})
	}
	cell(0, 0)
	if errs[0] == nil {
		var wg sync.WaitGroup
		for i := 1; i < len(archs); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cell(i, reps[0].ClockPeriod)
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", archs[i].Name, err)
		}
	}
	return reps, nil
}

// asFlowError coerces a cell's err into a *FlowError for the ledger.
// It walks the wrap chain with errors.As — a stage error wrapped by
// fmt.Errorf keeps its real failing stage instead of degrading to
// "flow".
func asFlowError(design, arch, flow string, err error) *FlowError {
	var fe *FlowError
	if errors.As(err, &fe) {
		return fe
	}
	return &FlowError{Design: design, Arch: arch, Flow: flow, Stage: "flow", Err: err}
}
