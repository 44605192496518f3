package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vpga/internal/artifact"
)

// endToEndSpecs lists the metrics an untraced run reports. "op" is the
// workload's unit of work (see README.md): one matrix, one sweep, one
// request, one coordinator matrix job.
var endToEndSpecs = []spec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"mem_mb", "MB"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one workload run: its inputs, the measured
// window, and everything recorded in it. Methods are safe for
// concurrent use by a workload's client goroutines.
type run struct {
	cfg     config
	seed    int64
	traced  bool
	seconds time.Duration
	tmp     string    // scratch directory inside the checkout
	out     io.Writer // human-readable report lines

	mu       sync.Mutex
	setups   []time.Duration
	start    time.Time
	end      time.Time
	alloc0   uint64
	allocOps uint64
	lat      []time.Duration
	mem      []float64     // MB the runtime holds from the OS, sampled in the window
	stopMem  chan struct{} // closes the sampler; it closes memDone when it exits
	memDone  chan struct{}
	ops      int
	failedOp map[int]string
	details  map[string]float64 // workload-specific numbers, printed only

	layers *layers
	spans  *spanLog
}

func newRun(cfg config, seed int64, traced bool, seconds time.Duration, tmp string, out io.Writer) *run {
	r := &run{cfg: cfg, seed: seed, traced: traced, seconds: seconds, tmp: tmp, out: out,
		failedOp: map[int]string{}, details: map[string]float64{}}
	if traced {
		r.layers = newLayers()
		r.spans = &spanLog{epoch: time.Now()}
	}
	return r
}

// setup runs fn cfg.setups times, timing each, and returns the state of
// the last call; the earlier states are closed at once.
func setup[T any](r *run, fn func() (T, func(), error)) (T, func(), error) {
	var (
		state T
		done  = func() {}
	)
	for i := 0; i < r.cfg.setups; i++ {
		done()
		runtime.GC() // start every set-up from the same heap state
		t := time.Now()
		s, closeFn, err := fn()
		d := time.Since(t)
		if err != nil {
			return state, func() {}, fmt.Errorf("setup: %w", err)
		}
		r.mu.Lock()
		r.setups = append(r.setups, d)
		r.mu.Unlock()
		state, done = s, closeFn
	}
	return state, done, nil
}

// begin opens the measured window.
func (r *run) begin() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	r.alloc0 = ms.TotalAlloc
	r.start = time.Now()
	r.stopMem, r.memDone = make(chan struct{}), make(chan struct{})
	r.mu.Unlock()
	go r.sampleMem()
}

// sampleMem records, every 20 ms until finish, the memory the Go
// runtime holds from the OS: mapped minus released to the OS.
func (r *run) sampleMem() {
	defer close(r.memDone)
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(samples)
		held := float64(samples[0].Value.Uint64()-samples[1].Value.Uint64()) / 1e6
		r.mu.Lock()
		r.mem = append(r.mem, held)
		r.mu.Unlock()
		select {
		case <-r.stopMem:
			return
		case <-tick.C:
		}
	}
}

// finish closes the measured window.
func (r *run) finish() {
	close(r.stopMem)
	<-r.memDone
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	r.end = time.Now()
	r.allocOps = ms.TotalAlloc - r.alloc0
	r.mu.Unlock()
}

// deadline is when the measured window should close.
func (r *run) deadline() time.Time { return r.start.Add(r.seconds) }

// more reports whether another op of the given expected length still
// fits in the window. The first op always runs.
func (r *run) more(expect time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops == 0 || time.Now().Add(expect).Before(r.start.Add(r.seconds))
}

// loop runs ops on n client goroutines until the next op would no
// longer fit in the window; fn runs the run's i-th op.
func (r *run) loop(n int, fn func(i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r.more(r.expect()) {
				fn(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
}

// expect is the median latency so far, the length to plan the next op
// by.
func (r *run) expect() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return medianDur(r.lat)
}

// op times fn as one operation, passing it the op's index. A failed op
// counts as attempted and failed, and its latency is not recorded.
func (r *run) op(name string, fn func(id int) error) (int, error) {
	r.mu.Lock()
	id := r.ops
	r.ops++
	r.mu.Unlock()
	start := time.Now()
	if r.spans != nil {
		r.spans.open(name, start, id)
	}
	err := fn(id)
	end := time.Now()
	r.mu.Lock()
	if err != nil {
		r.failedOp[id] = err.Error()
	} else {
		r.lat = append(r.lat, end.Sub(start))
	}
	r.mu.Unlock()
	if r.spans != nil {
		r.spans.close(id, end)
	}
	return id, err
}

// child records a layer span under op.
func (r *run) child(op int, name string, start, end time.Time) {
	r.spans.add(name, start, end, op)
}

// fail marks an op failed after the fact: a correctness check on its
// output did not hold.
func (r *run) fail(id int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.failedOp[id]; !ok {
		r.failedOp[id] = fmt.Sprintf(format, args...)
	}
}

// detail records a workload-specific number for the human-readable
// report.
func (r *run) detail(name string, v float64) {
	r.mu.Lock()
	r.details[name] = v
	r.mu.Unlock()
}

// tempDir makes a fresh scratch directory for the run.
func (r *run) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(r.tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(r.tmp, pattern)
}

// timeStore times artifact.Store Put and Get of the workload's result
// payloads in a fresh store (at most 32 payloads).
func (r *run) timeStore(payloads [][]byte) error {
	dir, err := r.tempDir("store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := artifact.Open(dir)
	if err != nil {
		return err
	}
	if len(payloads) > 32 {
		payloads = payloads[:32]
	}
	for _, p := range payloads {
		key := digest(p)
		t := time.Now()
		if err := st.Put(key, p); err != nil {
			return fmt.Errorf("artifact put: %w", err)
		}
		put := time.Since(t)
		t = time.Now()
		got, ok := st.Get(key)
		get := time.Since(t)
		if !ok || string(got) != string(p) {
			return fmt.Errorf("artifact get: payload %s did not round-trip", key[:12])
		}
		r.layers.mu.Lock()
		r.layers.putMS = append(r.layers.putMS, ms(put))
		r.layers.getMS = append(r.layers.getMS, ms(get))
		r.layers.mu.Unlock()
	}
	return nil
}

// result assembles the run's result object: the end-to-end metrics
// untraced, the per-layer metrics traced.
func (r *run) result() result {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := result{
		Correct:   len(r.failedOp) == 0,
		Attempted: r.ops,
		Failed:    len(r.failedOp),
		Metrics:   map[string]metric{},
	}
	if r.traced {
		vals := r.layers.metrics(r.ops)
		for _, s := range layerSpecs {
			res.Metrics[s.name] = metric{vals[s.name], s.unit}
		}
		return res
	}
	window := r.end.Sub(r.start).Seconds()
	ok := len(r.lat)
	vals := map[string]float64{
		"setup_s":         medianDur(r.setups).Seconds(),
		"p50_ms":          ms(medianDur(r.lat)),
		"ops_per_s":       ratio(float64(ok), window),
		"alloc_mb_per_op": ratio(float64(r.allocOps)/1e6, float64(r.ops)),
		"mem_mb":          median(r.mem),
	}
	for _, s := range endToEndSpecs {
		res.Metrics[s.name] = metric{vals[s.name], s.unit}
	}
	return res
}

// report writes the human-readable summary: failures, details and, for
// a traced run, the layer share table and the Chrome trace.
func (r *run) report(w string, res result) {
	r.mu.Lock()
	ids := make([]int, 0, len(r.failedOp))
	for id := range r.failedOp {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(r.out, "FAIL op %d: %s\n", id, r.failedOp[id])
	}
	names := make([]string, 0, len(r.details))
	for k := range r.details {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(r.out, "detail %-28s %.6g\n", k, r.details[k])
	}
	r.mu.Unlock()

	names = names[:0]
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(r.out, "%-14s %-32s %14.6g %s\n", w, k, m.Value, m.Unit)
	}
	if r.traced {
		vals := map[string]float64{}
		for k, m := range res.Metrics {
			vals[k] = m.Value
		}
		fmt.Fprintf(r.out, "where the flow time went (%s):\n%s", w, shareTable(vals))
		path := filepath.Join(r.tmp, "trace-"+w+".json")
		if err := r.spans.writeChrome(path); err != nil {
			fmt.Fprintf(r.out, "chrome trace: %v\n", err)
		} else {
			fmt.Fprintf(r.out, "chrome trace: %s\n", path)
		}
	}
}

// execute runs one workload end to end and returns its result.
func execute(ctx context.Context, w workload, r *run) (result, error) {
	if err := w.run(ctx, r); err != nil {
		return result{}, err
	}
	res := r.result()
	r.report(w.name, res)
	return res, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile returns the q-quantile of v by nearest rank.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func medianDur(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

// quartiles returns the three cut points of v the way Python's
// statistics.quantiles(v, n=4) computes them (its default "exclusive"
// method), so spreads read the same here as in any script.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestJSON is the digest of v's JSON encoding: the canonical form
// golden digests are taken over (encoding/json sorts map keys).
func digestJSON(v any) (string, error) {
	enc, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digest(enc), nil
}
