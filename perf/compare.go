package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func compareFiles(w io.Writer, specPath, oldPath, newPath string) (int, error) {
	var (
		spec     benchSpec
		old, cur results
	)
	for path, v := range map[string]any{specPath: &spec, oldPath: &old, newPath: &cur} {
		if err := readJSON(path, v); err != nil {
			return 0, err
		}
	}
	return compare(w, spec, old, cur), nil
}

// verdict classifies one (workload, metric) pair. A metric regresses
// when its new median is worse than the old one by more than the bound;
// it is unresolved when either side's interquartile spread exceeds the
// bound, so a change of that size could be noise.
func verdict(better string, bound float64, old, cur summary) (string, float64) {
	change := ratio(cur.Median-old.Median, old.Median)
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case worse > bound:
		return "REGRESSION", change
	case old.Spread > bound || cur.Spread > bound:
		return "unresolved", change
	case -worse > bound:
		return "better", change
	}
	return "ok", change
}

// compare prints one row per (workload, end-to-end metric) and returns
// the number of regressions.
func compare(w io.Writer, spec benchSpec, old, cur results) int {
	names := make([]string, 0, len(cur.Workloads))
	for n := range cur.Workloads {
		if _, ok := old.Workloads[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-16s %28s %28s %8s %6s  %s\n", "workload", "metric",
		"old median [q1 q3] n", "new median [q1 q3] n", "change", "bound", "verdict")
	regressions, unresolved := 0, 0
	for _, n := range names {
		for _, m := range spec.EndToEnd {
			o, ok1 := old.Workloads[n].EndToEnd[m.Name]
			c, ok2 := cur.Workloads[n].EndToEnd[m.Name]
			if !ok1 || !ok2 {
				fmt.Fprintf(w, "%-14s %-16s missing on one side\n", n, m.Name)
				unresolved++
				continue
			}
			v, change := verdict(m.Better, m.Bound, o, c)
			switch v {
			case "REGRESSION":
				regressions++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-14s %-16s %28s %28s %+7.1f%% %5.0f%%  %s\n", n, m.Name,
				fmtSummary(o), fmtSummary(c), 100*change, 100*m.Bound, v)
		}
	}
	fmt.Fprintf(w, "%d regression(s), %d unresolved\n", regressions, unresolved)
	return regressions
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}
