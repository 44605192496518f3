package route

import "sync"

// State is the router's working memory — usage/history/incidence
// arrays over the grid edges, A* scratch (scores, parents, stamp
// arrays, the frontier heap, the push log), and tree/path buffers —
// checked out for one Route call. Reusing a State across runs skips
// the allocation and most of the zeroing a cold router pays: the A*
// arrays are epoch-stamped, so carrying them over costs nothing (a
// monotonically increasing epoch never matches a stale stamp), and
// only the usage, history and incidence arrays are cleared per run.
//
// Reuse never changes results: every array is either cleared at
// checkout, guarded by an epoch, or rewritten before it is read (the
// edge base costs), so a pooled run is bit-identical to a cold one. The usage and per-net edge arrays are handed off to the
// Result at the end of the run (detailed routing reads them later) and
// reallocated on the next checkout.
type State struct {
	nx, ny int

	// Handed off to the Result at finish (nil afterwards).
	hUse, vUse []int16

	hHist, vHist []float32
	hOn, vOn     [][]int32 // nets currently holding each edge

	// hBase and vBase cache each edge's congestion-free cost, 1 +
	// hist/2 + via penalty: history changes only between iterations
	// and penalties are fixed for a run (see router.refreshBase).
	hBase, vBase []float64

	netOverCnt []int32 // per net: its edge refs currently on over-capacity edges

	search // A* scratch, epoch-stamped

	// Routing-tree membership (epoch-stamped) and reusable buffers.
	// treeDirs holds, for cells stamped in inTree, the directions of the
	// tree edges leaving them (finish's sink-distance BFS).
	inTree    []int32
	treeDirs  []uint8
	treeEpoch int32
	treeList  []point
	sinks     []point
	pathBuf   []point
}

// epochGuard bounds the stamp epochs: past it the stamp arrays are
// cleared and the epoch restarts, long before int32 wraparound could
// make a stale stamp match.
const epochGuard = 1 << 30

// prepare sizes the state for a grid and net count and clears what a
// fresh run must not see. Grid-shape changes reallocate; same-shape
// reuse clears usage/history/incidence and keeps the epoch-guarded
// scratch as is.
func (st *State) prepare(nx, ny, nets int) {
	hn, vn, cells := (nx-1)*ny, nx*(ny-1), nx*ny
	if st.nx != nx || st.ny != ny {
		st.nx, st.ny = nx, ny
		st.hUse = make([]int16, hn)
		st.vUse = make([]int16, vn)
		st.hHist = make([]float32, hn)
		st.vHist = make([]float32, vn)
		st.hOn = make([][]int32, hn)
		st.vOn = make([][]int32, vn)
		st.hBase = make([]float64, hn)
		st.vBase = make([]float64, vn)
		st.gScore = make([]float64, cells)
		st.parent = make([]int32, cells)
		st.gStamp = make([]int32, cells)
		st.cStamp = make([]int32, cells)
		st.inTree = make([]int32, cells)
		st.treeDirs = make([]uint8, cells)
		st.epoch, st.treeEpoch = 0, 0
	} else {
		if st.hUse == nil {
			st.hUse = make([]int16, hn)
			st.vUse = make([]int16, vn)
		} else {
			clear(st.hUse)
			clear(st.vUse)
		}
		clear(st.hHist)
		clear(st.vHist)
		for i := range st.hOn {
			st.hOn[i] = st.hOn[i][:0]
		}
		for i := range st.vOn {
			st.vOn[i] = st.vOn[i][:0]
		}
		if st.epoch > epochGuard {
			clear(st.gStamp)
			clear(st.cStamp)
			st.epoch = 0
		}
		if st.treeEpoch > epochGuard {
			clear(st.inTree)
			st.treeEpoch = 0
		}
	}
	if cap(st.netOverCnt) < nets {
		st.netOverCnt = make([]int32, nets)
	} else {
		st.netOverCnt = st.netOverCnt[:nets]
		clear(st.netOverCnt)
	}
}

// Pool hands out router States for reuse across runs. Matrix cells and
// sweeps routing many designs on similarly-shaped grids share one pool
// so each run stops paying allocation plus zeroing for the full
// scratch set. A nil *Pool is valid and simply allocates per run; all
// methods are safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free []*State
}

// NewPool returns an empty State pool.
func NewPool() *Pool { return &Pool{} }

func (p *Pool) get() *State {
	if p == nil {
		return &State{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		st := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return st
	}
	return &State{}
}

func (p *Pool) put(st *State) {
	if p == nil || st == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, st)
}
