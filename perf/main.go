// Command perf is the repository's benchmark: four workloads that
// together cover the VPGA flow's layers (rtl → aig → techmap → compact
// → place → pack → viamap → route → sta → power), the vpgad service
// path and the cluster coordinator. See README.md for the metrics, the
// workloads and why each was chosen.
//
// One run of one workload (a fresh process each time):
//
//	perf -workload paper-matrix -seed 1 -seconds 30 -trace 0
//
// prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report
// the end-to-end metrics; traced runs (-trace 1) the per-layer ones.
// The exit status is non-zero when any output check failed.
//
// Without -workload, perf re-executes itself once per run of every
// workload (-runs untraced runs and one traced run each, seeds counting
// up from -seed), prints each metric's median and quartiles, and with
// -out writes them as a results file that -compare reads:
//
//	perf -compare old.json new.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: "+workloadNames())
		seed     = flag.Int64("seed", 1, "input seed; every input of a run derives from it")
		seconds  = flag.Int("seconds", 30, "length of the measured window per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		tmp      = flag.String("tmp", ".bench_build/tmp", "scratch directory")
		runs     = flag.Int("runs", 10, "untraced runs per workload without -workload")
		out      = flag.String("out", "", "write the summarized results to this file")
		compare  = flag.Bool("compare", false, "compare two results files: perf -compare old.json new.json")
		spec     = flag.String("spec", "BENCHMARK.json", "metric bounds for -compare")
		golden   = flag.String("update-golden", "", "recompute the golden output digests into this file")
	)
	flag.Parse()
	ctx := context.Background()
	var err error
	switch {
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case *seconds < 1 || *runs < 1:
		err = fmt.Errorf("-seconds and -runs must be at least 1")
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two results files")
			break
		}
		var regressions int
		regressions, err = compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err == nil && regressions > 0 {
			err = fmt.Errorf("%d regression(s)", regressions)
		}
	case *golden != "":
		err = updateGolden(ctx, *golden)
	case *workload != "":
		w, ok := findWorkload(*workload)
		if !ok {
			err = fmt.Errorf("unknown workload %q (want %s)", *workload, workloadNames())
			break
		}
		r := newRun(fullConfig, *seed, *trace == 1, time.Duration(*seconds)*time.Second, *tmp, os.Stdout)
		var res result
		if res, err = execute(ctx, w, r); err == nil {
			printResult(os.Stdout, r, res)
			if !res.Correct {
				err = fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
			}
		}
	default:
		err = suite(*seed, *seconds, *runs, *out, *tmp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}
