package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vpga/internal/core"
)

// flowLayers maps each flow module to the stage name the obs tracer
// records for it, in pipeline order.
var flowLayers = []struct{ module, stage string }{
	{"rtl", "rtl"}, {"aig", "synth"}, {"techmap", "map"}, {"compact", "compact"},
	{"place", "place"}, {"sta", "sta"}, {"pack", "pack"}, {"viamap", "viamap"},
	{"route", "route"}, {"power", "power"},
}

// stageCacheStages are the stage-cache links, in chain order.
var stageCacheStages = []string{"map", "compact", "place", "pack", "route"}

// layerSpecs lists every per-layer metric a traced run reports, with
// its unit. Every workload reports all of them; a layer the workload
// does not exercise reads 0.
var layerSpecs = func() []spec {
	var out []spec
	for _, l := range flowLayers {
		out = append(out, spec{l.module + ".self_s", "s"}, spec{l.module + ".share", "ratio"})
	}
	out = append(out,
		spec{"core.other_s", "s"}, spec{"core.other_share", "ratio"}, spec{"core.flow_runs", "count"},
		spec{"place.moves", "count"}, spec{"place.moves_per_s", "1/s"}, spec{"place.accept_ratio", "ratio"},
		spec{"route.iterations", "count"}, spec{"route.overflow", "count"},
		spec{"compact.area_reduction", "ratio"}, spec{"techmap.gate_area", "gates"},
		spec{"pack.utilization", "ratio"},
		spec{"core.cache_key_ms", "ms"}, spec{"core.stage_keys_ms", "ms"},
		spec{"artifact.put_ms", "ms"}, spec{"artifact.get_ms", "ms"},
		spec{"server.hit_ratio", "ratio"}, spec{"server.store_reads_per_op", "count"},
		spec{"server.journal_appends_per_op", "count"}, spec{"server.queue_share", "ratio"},
	)
	for _, st := range stageCacheStages {
		out = append(out, spec{"stagecache." + st + "_hit_ratio", "ratio"})
	}
	return append(out,
		spec{"stagecache.restore_ratio", "ratio"},
		spec{"coord.tickets_per_op", "count"}, spec{"coord.steal_ratio", "ratio"}, spec{"coord.retry_ratio", "ratio"},
		spec{"coord.peer_hit_ratio", "ratio"}, spec{"coord.worker_cache_hit_ratio", "ratio"},
	)
}()

// spec names a metric and its unit.
type spec struct{ name, unit string }

// layers accumulates what a traced run learns about each layer: flow
// stage time and solver counters from the program's own stage spans,
// service counters from /metrics deltas, and direct timings of the key
// derivation and artifact-store calls. Safe for concurrent use.
type layers struct {
	mu sync.Mutex

	ops int // traced ops the totals cover; 0 = every op of the run

	flowRuns int
	flowWall time.Duration // summed wall of the flow runs (or replayed ops)
	stage    map[string]time.Duration
	moves    int64
	accepted int64

	routedRuns, routeIters, overflow int
	qorRuns                          int
	compactRed, gateArea             float64
	packRuns                         int
	util                             float64

	keyMS, stageKeyMS, putMS, getMS []float64

	prom  map[string]float64 // summed /metrics deltas, by series
	coord map[string]float64 // coordinator /metrics counters
}

func newLayers() *layers {
	return &layers{stage: map[string]time.Duration{}, prom: map[string]float64{}, coord: map[string]float64{}}
}

// addReport folds one flow run's traced report into the totals.
func (l *layers) addReport(rep *core.Report) {
	if rep == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flowRuns++
	l.flowWall += rep.Runtime
	for _, st := range rep.Stages {
		l.stage[st.Stage] += st.Dur
	}
	if s := rep.Solver; s != nil {
		l.moves += s.AnnealProposed
		l.accepted += s.AnnealAccepted
		if s.RouteIterations > 0 {
			l.routedRuns++
			l.routeIters += s.RouteIterations
		}
	}
	l.addQoRLocked(rep)
}

// addOp counts one traced op.
func (l *layers) addOp() {
	l.mu.Lock()
	l.ops++
	l.mu.Unlock()
}

// addQoR folds a report's result figures (present in stripped reports
// too) into the QoR averages.
func (l *layers) addQoR(rep *core.Report) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addQoRLocked(rep)
}

func (l *layers) addQoRLocked(rep *core.Report) {
	l.qorRuns++
	l.overflow += rep.Overflow
	l.compactRed += rep.CompactionReduction
	l.gateArea += rep.GateCount
	if rep.Rows > 0 {
		l.packRuns++
		l.util += rep.Utilization
	}
}

// addTime adds benchmark-timed work to a stage (the routing sweep's
// capacity points, which the program does not span).
func (l *layers) addTime(stage string, d time.Duration) {
	l.mu.Lock()
	l.stage[stage] += d
	l.mu.Unlock()
}

// addRoute counts a benchmark-timed routing call's negotiation
// iterations.
func (l *layers) addRoute(iters int) {
	l.mu.Lock()
	l.routedRuns++
	l.routeIters += iters
	l.mu.Unlock()
}

// addWall adds wall time the stages should account for.
func (l *layers) addWall(d time.Duration) {
	l.mu.Lock()
	l.flowWall += d
	l.mu.Unlock()
}

// traceEvent is one Chrome trace-event entry, as the coordinator's
// merged job trace serves it.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// addTrace folds a merged cluster trace's flow runs (cat "run", solver
// counters in args) and stage spans (cat "stage") into the totals.
func (l *layers) addTrace(events []traceEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	us := func(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }
	num := func(args map[string]any, k string) float64 {
		v, _ := args[k].(float64)
		return v
	}
	for _, ev := range events {
		switch ev.Cat {
		case "run":
			l.flowRuns++
			l.flowWall += us(ev.Dur)
			l.moves += int64(num(ev.Args, "anneal_proposed"))
			l.accepted += int64(num(ev.Args, "anneal_accepted"))
			if it := int(num(ev.Args, "route_iterations")); it > 0 {
				l.routedRuns++
				l.routeIters += it
			}
		case "stage":
			l.stage[ev.Name] += us(ev.Dur)
		}
	}
}

// addProm adds the delta between two /metrics scrapes of one server.
func (l *layers) addProm(before, after map[string]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, v := range after {
		l.prom[k] += v - before[k]
	}
}

// setCoord records the coordinator's counters at the end of the run
// (the coordinator starts from zero with the run).
func (l *layers) setCoord(m map[string]float64) {
	l.mu.Lock()
	l.coord = m
	l.mu.Unlock()
}

// timeKeys times FlowRequest.CacheKey and StageKeys on the workload's
// requests, three calls each.
func (l *layers) timeKeys(reqs []core.FlowRequest) error {
	for _, req := range reqs {
		for i := 0; i < 3; i++ {
			t := time.Now()
			if _, err := req.CacheKey(); err != nil {
				return fmt.Errorf("cache key: %w", err)
			}
			k := time.Since(t)
			t = time.Now()
			if _, err := req.StageKeys(); err != nil {
				return fmt.Errorf("stage keys: %w", err)
			}
			s := time.Since(t)
			l.mu.Lock()
			l.keyMS = append(l.keyMS, ms(k))
			l.stageKeyMS = append(l.stageKeyMS, ms(s))
			l.mu.Unlock()
		}
	}
	return nil
}

// metrics renders every layerSpecs metric; runOps is the run's op
// count.
func (l *layers) metrics(runOps int) map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := l.ops
	if ops == 0 {
		ops = runOps
	}
	out := map[string]float64{}
	per := func(v float64) float64 { return ratio(v, float64(ops)) }
	wall := l.flowWall.Seconds()
	var staged time.Duration
	for _, fl := range flowLayers {
		d := l.stage[fl.stage]
		staged += d
		out[fl.module+".self_s"] = per(d.Seconds())
		out[fl.module+".share"] = ratio(d.Seconds(), wall)
	}
	other := (l.flowWall - staged).Seconds()
	out["core.other_s"] = per(other)
	out["core.other_share"] = ratio(other, wall)
	out["core.flow_runs"] = per(float64(l.flowRuns))
	out["place.moves"] = per(float64(l.moves))
	out["place.moves_per_s"] = ratio(float64(l.moves), l.stage["place"].Seconds())
	out["place.accept_ratio"] = ratio(float64(l.accepted), float64(l.moves))
	out["route.iterations"] = ratio(float64(l.routeIters), float64(l.routedRuns))
	out["route.overflow"] = ratio(float64(l.overflow), float64(l.qorRuns))
	out["compact.area_reduction"] = ratio(l.compactRed, float64(l.qorRuns))
	out["techmap.gate_area"] = ratio(l.gateArea, float64(l.qorRuns))
	out["pack.utilization"] = ratio(l.util, float64(l.packRuns))
	out["core.cache_key_ms"] = median(l.keyMS)
	out["core.stage_keys_ms"] = median(l.stageKeyMS)
	out["artifact.put_ms"] = median(l.putMS)
	out["artifact.get_ms"] = median(l.getMS)

	p := l.prom
	hits, misses := p["vpgad_cache_hits_total"], p["vpgad_cache_misses_total"]
	out["server.hit_ratio"] = ratio(hits, hits+misses)
	out["server.store_reads_per_op"] = ratio(p["vpgad_store_hits_total"], hits+misses)
	out["server.journal_appends_per_op"] = ratio(p["vpgad_journal_appends_total"], hits+misses)
	wait := p["vpgad_job_queue_wait_seconds_sum"]
	out["server.queue_share"] = ratio(wait, wait+p["vpgad_job_duration_seconds_sum"])
	var sh, sl float64
	for _, st := range stageCacheStages {
		h := p[`vpgad_stage_cache_hits_total{stage="`+st+`"}`]
		m := p[`vpgad_stage_cache_misses_total{stage="`+st+`"}`]
		out["stagecache."+st+"_hit_ratio"] = ratio(h, h+m)
		sh, sl = sh+h, sl+h+m
	}
	out["stagecache.restore_ratio"] = ratio(sh, sl)

	c := l.coord
	tickets := c["vpgad_cluster_tickets_total"]
	out["coord.tickets_per_op"] = per(tickets)
	out["coord.steal_ratio"] = ratio(c["vpgad_cluster_steals_total"], tickets)
	out["coord.retry_ratio"] = ratio(c["vpgad_cluster_ticket_retries_total"], tickets)
	out["coord.peer_hit_ratio"] = ratio(c["vpgad_cluster_peer_hits_total"], tickets)
	out["coord.worker_cache_hit_ratio"] = ratio(c["vpgad_cluster_worker_cache_hits_total"], tickets)
	return out
}

// shareTable renders where a traced run's flow time went, one row per
// flow layer plus the unattributed rest.
func shareTable(m map[string]float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %-9s %12s %8s\n", "layer", "self s/op", "share")
	for _, fl := range flowLayers {
		fmt.Fprintf(&sb, "  %-9s %12.4f %7.1f%%\n", fl.module, m[fl.module+".self_s"], 100*m[fl.module+".share"])
	}
	fmt.Fprintf(&sb, "  %-9s %12.4f %7.1f%%\n", "other", m["core.other_s"], 100*m["core.other_share"])
	return sb.String()
}

// scrape reads a Prometheus text endpoint into series → value.
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// parseProm parses Prometheus text format lines "series value".
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// span is one recorded interval of a traced run.
type span struct {
	name       string
	start, end time.Duration // offsets from the run's epoch
	parent     int           // index of the parent span, -1 for an op
	op         int
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	opSpan map[int]int // op → index of its span
}

// open starts op's own span; close ends it.
func (s *spanLog) open(name string, start time.Time, op int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opSpan == nil {
		s.opSpan = map[int]int{}
	}
	s.opSpan[op] = len(s.spans)
	s.spans = append(s.spans, span{name, start.Sub(s.epoch), start.Sub(s.epoch), -1, op})
}

func (s *spanLog) close(op int, end time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans[s.opSpan[op]].end = end.Sub(s.epoch)
}

// add records a layer span under op's span.
func (s *spanLog) add(name string, start, end time.Time, op int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, span{name, start.Sub(s.epoch), end.Sub(s.epoch), s.opSpan[op], op})
}

// writeChrome writes the spans as Chrome trace-event JSON, one row per
// op so layer spans sit under their op.
func (s *spanLog) writeChrome(path string) error {
	s.mu.Lock()
	spans := append([]span(nil), s.spans...)
	s.mu.Unlock()
	events := make([]traceEvent, 0, len(spans))
	for _, sp := range spans {
		ev := traceEvent{
			Name: sp.name, Cat: "op", Ph: "X", Pid: 1, Tid: sp.op,
			Ts: float64(sp.start.Microseconds()), Dur: float64((sp.end - sp.start).Microseconds()),
		}
		if sp.parent >= 0 {
			ev.Cat, ev.Args = "layer", map[string]any{"parent": spans[sp.parent].name}
		}
		events = append(events, ev)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	enc, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}
