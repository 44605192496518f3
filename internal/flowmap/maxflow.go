// Package flowmap implements the maxflow-mincut machinery behind the
// paper's regularity-driven logic compaction: "Our algorithm first
// finds clusters of logic or supernodes corresponding to functions with
// 3 or less inputs. This is done using a maxflow-mincut algorithm
// similar to Flowmap [5]." (Sec. 3.1). It provides a Dinic max-flow
// solver and K-feasible-cut computation over arbitrary combinational
// DAGs via node splitting.
package flowmap

// Dinic is a max-flow solver over an explicit capacity graph.
type Dinic struct {
	n    int
	to   []int
	cap  []int64
	next []int
	head []int
	// Per-phase scratch, allocated on the first MaxFlow and reset in
	// place on every phase after it, and across Reset.
	level []int
	iter  []int
	queue []int
	reach []bool
}

// Inf is the effectively-unbounded capacity.
const Inf int64 = 1 << 60

// NewDinic creates a solver with n nodes and no edges.
func NewDinic(n int) *Dinic {
	d := &Dinic{}
	d.Reset(n)
	return d
}

// Reset empties the solver to n nodes and no edges, keeping its
// storage for the next graph.
func (d *Dinic) Reset(n int) {
	d.n = n
	d.to, d.cap, d.next = d.to[:0], d.cap[:0], d.next[:0]
	d.head = d.head[:0]
	for range n {
		d.head = append(d.head, -1)
	}
}

// AddEdge adds a directed edge u→v with the given capacity and returns
// its index (the reverse edge is index^1).
func (d *Dinic) AddEdge(u, v int, c int64) int {
	idx := len(d.to)
	d.to = append(d.to, v)
	d.cap = append(d.cap, c)
	d.next = append(d.next, d.head[u])
	d.head[u] = idx
	d.to = append(d.to, u)
	d.cap = append(d.cap, 0)
	d.next = append(d.next, d.head[v])
	d.head[v] = idx + 1
	return idx
}

func (d *Dinic) bfs(s, t int) bool {
	d.level = d.level[:0]
	for range d.n {
		d.level = append(d.level, -1)
	}
	queue := append(d.queue[:0], s)
	d.level[s] = 0
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for e := d.head[u]; e != -1; e = d.next[e] {
			if d.cap[e] > 0 && d.level[d.to[e]] < 0 {
				d.level[d.to[e]] = d.level[u] + 1
				queue = append(queue, d.to[e])
			}
		}
	}
	d.queue = queue
	return d.level[t] >= 0
}

func (d *Dinic) dfs(u, t int, f int64) int64 {
	if u == t {
		return f
	}
	for ; d.iter[u] != -1; d.iter[u] = d.next[d.iter[u]] {
		e := d.iter[u]
		v := d.to[e]
		if d.cap[e] <= 0 || d.level[v] != d.level[u]+1 {
			continue
		}
		got := d.dfs(v, t, min64(f, d.cap[e]))
		if got > 0 {
			d.cap[e] -= got
			d.cap[e^1] += got
			return got
		}
	}
	return 0
}

// MaxFlow computes the max flow from s to t, stopping early once the
// flow exceeds limit (pass a negative limit for no bound). The returned
// value is exact when ≤ limit, otherwise a witness that the flow is
// larger than limit.
func (d *Dinic) MaxFlow(s, t int, limit int64) int64 {
	var flow int64
	for d.bfs(s, t) {
		d.iter = append(d.iter[:0], d.head...)
		for {
			f := d.dfs(s, t, Inf)
			if f == 0 {
				break
			}
			flow += f
			if limit >= 0 && flow > limit {
				return flow
			}
		}
	}
	return flow
}

// ResidualReachable returns the set of nodes reachable from s in the
// residual graph; the min cut consists of saturated edges leaving the
// set. The slice belongs to d and is overwritten by the next call.
func (d *Dinic) ResidualReachable(s int) []bool {
	seen := append(d.reach[:0], make([]bool, d.n)...)
	d.reach = seen
	seen[s] = true
	stack := append(d.queue[:0], s)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for e := d.head[u]; e != -1; e = d.next[e] {
			if d.cap[e] > 0 && !seen[d.to[e]] {
				seen[d.to[e]] = true
				stack = append(stack, d.to[e])
			}
		}
	}
	d.queue = stack
	return seen
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
