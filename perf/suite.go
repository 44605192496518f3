package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// printResult writes a run's details line and, last, its result line.
func printResult(w io.Writer, r *run, res result) {
	r.mu.Lock()
	r.details["op_p50_ms"] = ms(medianDur(r.lat))
	r.details["peak_rss_mb"] = peakRSSMB()
	details := mustJSON(r.details)
	r.mu.Unlock()
	fmt.Fprintf(w, "details %s\n%s\n", details, mustJSON(res))
}

// childRun is one run as the suite recorded it.
type childRun struct {
	Seed    int64              `json:"seed"`
	Trace   bool               `json:"trace"`
	Result  result             `json:"result"`
	Details map[string]float64 `json:"details"`
}

// summary is a metric's distribution over a workload's runs. Spread is
// the interquartile range as a share of the median.
type summary struct {
	Unit   string  `json:"unit,omitempty"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Spread float64 `json:"spread"`
}

func summarize(unit string, v []float64) summary {
	q1, q2, q3 := quartiles(v)
	return summary{Unit: unit, Median: q2, Q1: q1, Q3: q3, N: len(v), Spread: ratio(q3-q1, q2)}
}

// workloadResults is everything the suite measured on one workload.
type workloadResults struct {
	Runs     []childRun         `json:"runs"`
	EndToEnd map[string]summary `json:"end_to_end"`
	Layers   map[string]summary `json:"per_layer"`
	Details  map[string]summary `json:"details"`
	// TraceOverheadFrac is the traced runs' median of detail
	// trace_overhead_frac: traced over untraced op latency in one
	// process, minus one (0 where tracing does not touch the ops).
	TraceOverheadFrac float64 `json:"trace_overhead_frac"`
}

// results is a results file: provenance plus per-workload summaries.
type results struct {
	Schema     int                         `json:"schema"`
	Generated  string                      `json:"generated"`
	Provenance map[string]string           `json:"provenance"`
	Seconds    int                         `json:"seconds"`
	Workloads  map[string]*workloadResults `json:"workloads"`
}

// suite runs every workload in fresh child processes — runs untraced
// runs with seeds seed, seed+1, … and one traced run — and summarizes
// them.
func suite(seed int64, seconds, runs int, out, tmp string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := results{Schema: 1, Generated: time.Now().UTC().Format(time.RFC3339),
		Provenance: provenance(), Seconds: seconds, Workloads: map[string]*workloadResults{}}
	failed := 0
	for _, w := range workloads {
		wr := &workloadResults{}
		res.Workloads[w.name] = wr
		for i := 0; i <= runs; i++ {
			traced := i == runs
			s := seed + int64(i)
			if traced {
				s = seed
			}
			cr, err := child(exe, w.name, s, seconds, traced, tmp)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			if !cr.Result.Correct {
				failed++
			}
			wr.Runs = append(wr.Runs, cr)
		}
		wr.summarize()
	}
	printSummary(os.Stdout, res)
	if out != "" {
		enc, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed their output checks", failed)
	}
	return nil
}

// child runs one workload run in a fresh process and parses its last
// two lines.
func child(exe, workload string, seed int64, seconds int, traced bool, tmp string) (childRun, error) {
	cr := childRun{Seed: seed, Trace: traced}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", tr, "-tmp", tmp)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, os.Stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var lines []string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "details ") {
		if runErr != nil {
			return cr, runErr
		}
		return cr, fmt.Errorf("no result line")
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "details ")), &cr.Details); err != nil {
		return cr, err
	}
	return cr, json.Unmarshal([]byte(lines[len(lines)-1]), &cr.Result)
}

// summarize computes the workload's metric distributions.
func (wr *workloadResults) summarize() {
	collect := func(traced bool, pick func(childRun) map[string]float64, units map[string]string) map[string]summary {
		vals := map[string][]float64{}
		for _, cr := range wr.Runs {
			if cr.Trace != traced {
				continue
			}
			for k, v := range pick(cr) {
				vals[k] = append(vals[k], v)
			}
		}
		out := map[string]summary{}
		for k, v := range vals {
			out[k] = summarize(units[k], v)
		}
		return out
	}
	units := map[string]string{}
	metricsOf := func(cr childRun) map[string]float64 {
		m := map[string]float64{}
		for k, v := range cr.Result.Metrics {
			m[k] = v.Value
			units[k] = v.Unit
		}
		return m
	}
	details := func(cr childRun) map[string]float64 { return cr.Details }
	wr.EndToEnd = collect(false, metricsOf, units)
	wr.Layers = collect(true, metricsOf, units)
	wr.Details = collect(false, details, units)
	wr.TraceOverheadFrac = collect(true, details, units)["trace_overhead_frac"].Median
}

// printSummary prints every metric's median, quartiles and spread.
func printSummary(w io.Writer, res results) {
	names := make([]string, 0, len(res.Workloads))
	for n := range res.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-14s %-30s %12s %12s %12s %4s %7s\n", "workload", "metric", "median", "q1", "q3", "n", "spread")
	for _, n := range names {
		wr := res.Workloads[n]
		for _, group := range []map[string]summary{wr.EndToEnd, wr.Details} {
			keys := make([]string, 0, len(group))
			for k := range group {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				s := group[k]
				fmt.Fprintf(w, "%-14s %-30s %12.6g %12.6g %12.6g %4d %6.1f%% %s\n",
					n, k, s.Median, s.Q1, s.Q3, s.N, 100*s.Spread, s.Unit)
			}
		}
		fmt.Fprintf(w, "%-14s %-30s %12.4f\n", n, "trace_overhead_frac", wr.TraceOverheadFrac)
	}
}

// provenance records where a results file was measured.
func provenance() map[string]string {
	host, _ := os.Hostname()
	p := map[string]string{
		"host": host, "cpus": strconv.Itoa(runtime.NumCPU()), "go": runtime.Version(),
		"os": runtime.GOOS + "/" + runtime.GOARCH, "cpu_model": "unknown", "git_rev": "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		p["git_rev"] = strings.TrimSpace(string(rev))
	}
	return p
}
