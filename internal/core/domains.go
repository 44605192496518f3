package core

import (
	"context"
	"fmt"
	"strings"

	"vpga/internal/bench"
	"vpga/internal/cells"
)

// DomainResult reports, for one application domain (benchmark design),
// how each candidate PLB architecture performs and which wins.
type DomainResult struct {
	Domain string
	Points []SweepPoint
	// Best is the architecture minimizing the area-delay product
	// (die area × post-layout critical delay).
	Best string
	// BestAreaDelay is the winning product.
	BestAreaDelay float64
}

// RunDomainExplore runs the paper's proposed future work (Sec. 4:
// "the optimal combination of these logic elements, and the optimal
// ratio of combinational to sequential logic elements varies with the
// application domain. Accordingly, we propose to explore these issues
// in an application-domain specific manner"): each design stands for a
// domain, swept across a family of PLB architectures by ExecuteSweep —
// the first architecture pins the domain's clock period and the
// remaining runs fan out on opts.Parallel workers — and the winner per
// domain is chosen by area-delay product. Results are deterministic at
// any width.
func RunDomainExplore(ctx context.Context, domains []bench.Design, archs []*cells.PLBArch, opts SweepOptions) ([]DomainResult, error) {
	var out []DomainResult
	for _, d := range domains {
		reps, err := ExecuteSweep(archs, opts.runner(ctx, d, archs, "domain"))
		if err != nil {
			return nil, fmt.Errorf("domain %s: %w", d.Name, err)
		}
		res := DomainResult{Domain: d.Name, Points: make([]SweepPoint, len(archs))}
		// Winner selection stays in arch order, so ties resolve
		// identically at any parallelism.
		for i, rep := range reps {
			res.Points[i] = SweepPointFrom(archs[i], rep)
			if ad := rep.DieArea * rep.MaxArrival; res.Best == "" || ad < res.BestAreaDelay {
				res.Best, res.BestAreaDelay = archs[i].Name, ad
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// FormatDomains renders domain-exploration results.
func FormatDomains(results []DomainResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Application-domain exploration (Sec. 4 future work): best PLB per domain\n")
	for _, r := range results {
		fmt.Fprintf(&sb, "  %-14s best: %-14s (area×delay %.3e)\n", r.Domain, r.Best, r.BestAreaDelay)
		for _, p := range r.Points {
			marker := " "
			if p.Arch == r.Best {
				marker = "*"
			}
			fmt.Fprintf(&sb, "   %s %-14s die=%9.0f  slack=%9.1f\n", marker, p.Arch, p.DieArea, p.AvgTopSlack)
		}
	}
	return sb.String()
}
