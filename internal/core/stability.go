package core

import (
	"context"
	"fmt"
	"strings"

	"vpga/internal/bench"
	"vpga/internal/obs"
)

// ClaimStats aggregates the derived claims over several seeds: mean,
// minimum and maximum of each headline number, so the reproduction
// reports stability rather than a single lucky draw.
type ClaimStats struct {
	Seeds  []int64
	Runs   []Claims
	Labels []string
	Mean   []float64
	Min    []float64
	Max    []float64
}

// claimVector flattens the stable numeric fields of a Claims.
func claimVector(c Claims) ([]float64, []string) {
	return []float64{
			100 * c.AvgDatapathDieReduction,
			100 * c.AvgPackingOverheadReduction,
			100 * c.AvgSlackImprovement,
			100 * c.AvgPerfDegradationReduction,
			c.FirewireAreaRatio,
		}, []string{
			"datapath die-area reduction %",
			"packing-overhead reduction %",
			"slack improvement (% of clock)",
			"perf-degradation reduction %",
			"Firewire area ratio",
		}
}

// StabilityOptions parameterizes RunStabilityStudy. It surfaces what
// used to be hidden positional tail arguments (effort, parallel,
// progress) as named fields; the zero value is valid.
type StabilityOptions struct {
	// PlaceEffort scales annealing moves per object (0 = default).
	PlaceEffort int
	// Parallel bounds each matrix's concurrent flow runs (0 =
	// GOMAXPROCS). Results are bit-identical at any setting.
	Parallel int
	// Progress, when non-nil, receives one line per completed matrix
	// cell, in canonical order.
	Progress func(string)
	// Trace records every matrix run across all seeds.
	Trace *obs.Tracer
}

// RunStabilityStudy runs the full matrix once per seed and aggregates
// the claims. Seeds run one after another; each matrix parallelizes
// internally up to the parallel bound (0 = GOMAXPROCS), which keeps
// the worker pool saturated without oversubscribing it.
func RunStabilityStudy(ctx context.Context, suite bench.Suite, seeds []int64, opts StabilityOptions) (*ClaimStats, error) {
	st := &ClaimStats{Seeds: seeds}
	for _, seed := range seeds {
		m, err := RunMatrix(ctx, suite, MatrixOptions{
			Seed: seed, PlaceEffort: opts.PlaceEffort, Parallel: opts.Parallel,
			Progress: opts.Progress, Trace: opts.Trace,
		})
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		st.Runs = append(st.Runs, m.DeriveClaims())
	}
	for i, c := range st.Runs {
		vec, labels := claimVector(c)
		if i == 0 {
			st.Labels = labels
			st.Mean = make([]float64, len(vec))
			st.Min = append([]float64(nil), vec...)
			st.Max = append([]float64(nil), vec...)
		}
		for k, v := range vec {
			st.Mean[k] += v
			if v < st.Min[k] {
				st.Min[k] = v
			}
			if v > st.Max[k] {
				st.Max[k] = v
			}
		}
	}
	for k := range st.Mean {
		st.Mean[k] /= float64(len(st.Runs))
	}
	return st, nil
}

// String renders the study.
func (st *ClaimStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Stability over %d seeds %v:\n", len(st.Seeds), st.Seeds)
	fmt.Fprintf(&sb, "  %-34s %10s %10s %10s\n", "claim", "mean", "min", "max")
	for k, label := range st.Labels {
		fmt.Fprintf(&sb, "  %-34s %10.2f %10.2f %10.2f\n", label, st.Mean[k], st.Min[k], st.Max[k])
	}
	return sb.String()
}
