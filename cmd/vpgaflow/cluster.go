package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"
)

// clusterMain dispatches the `vpgaflow cluster` subcommand family —
// live cluster observability against a running coordinator:
//
//	vpgaflow cluster top    render GET /v1/cluster/status as a table
//
// `cluster top` prints one snapshot and exits; -watch re-renders every
// -interval until interrupted, like a minimal `top` for the fleet.
func clusterMain(args []string) {
	if len(args) == 0 {
		fatalf("cluster: want a subcommand: top")
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	switch args[0] {
	case "top":
		clusterTop(ctx, args[1:])
	default:
		fatalf("cluster: unknown subcommand %q (want top)", args[0])
	}
}

// clusterStatus mirrors the coordinator's GET /v1/cluster/status
// payload — only the fields the renderer consumes.
type clusterStatus struct {
	Role          string  `json:"role"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	NodesUp       int     `json:"nodes_up"`
	JobsTracked   int     `json:"jobs_tracked"`
	Nodes         []struct {
		Node             string `json:"node"`
		Up               bool   `json:"up"`
		TicketQueueDepth int    `json:"ticket_queue_depth"`
		InFlightTickets  int    `json:"in_flight_tickets"`
		WorkerQueueDepth int    `json:"worker_queue_depth"`
		WorkerJobs       int64  `json:"worker_jobs_running"`
		Dispatched       int64  `json:"dispatched"`
		Errors           int64  `json:"errors"`
		StageCache       map[string]struct {
			Hits     int64   `json:"hits"`
			Misses   int64   `json:"misses"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"stage_cache"`
	} `json:"nodes"`
	Cluster struct {
		Tickets         int64   `json:"tickets"`
		TicketRetries   int64   `json:"ticket_retries"`
		Steals          int64   `json:"steals"`
		Reshards        int64   `json:"reshards"`
		PeerHits        int64   `json:"peer_hits"`
		WorkerCacheHits int64   `json:"worker_cache_hits"`
		PeerHitRatio    float64 `json:"peer_hit_ratio"`
		JobsCompleted   int64   `json:"jobs_completed"`
		JobsFailed      int64   `json:"jobs_failed"`
	} `json:"cluster"`
}

// clusterTop serves `vpgaflow cluster top`.
func clusterTop(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("cluster top", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "coordinator base URL")
	watch := fs.Bool("watch", false, "re-render continuously until interrupted")
	interval := fs.Duration("interval", 2*time.Second, "refresh period with -watch")
	fs.Parse(args)

	base := strings.TrimRight(*addr, "/")
	for {
		st, err := fetchClusterStatus(ctx, base)
		if err != nil {
			fatalf("cluster top: %v", err)
		}
		if *watch {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear screen
		}
		renderClusterStatus(os.Stdout, base, st)
		if !*watch {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(*interval):
		}
	}
}

func fetchClusterStatus(ctx context.Context, base string) (*clusterStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/cluster/status", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/v1/cluster/status: %s (is the address a coordinator?)", base, resp.Status)
	}
	var st clusterStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding cluster status: %w", err)
	}
	return &st, nil
}

// renderClusterStatus prints the snapshot as a fixed-width table plus
// a one-line cluster rollup.
func renderClusterStatus(w io.Writer, base string, st *clusterStatus) {
	fmt.Fprintf(w, "%s  up %s  nodes %d/%d up  jobs %d tracked / %d done / %d failed\n",
		base, (time.Duration(st.UptimeSeconds * float64(time.Second))).Round(time.Second),
		st.NodesUp, len(st.Nodes), st.JobsTracked, st.Cluster.JobsCompleted, st.Cluster.JobsFailed)
	fmt.Fprintf(w, "tickets %d (%d retries, %d steals, %d reshards)  cache hits: peer %d + worker %d (%.0f%%)\n\n",
		st.Cluster.Tickets, st.Cluster.TicketRetries, st.Cluster.Steals, st.Cluster.Reshards,
		st.Cluster.PeerHits, st.Cluster.WorkerCacheHits, 100*st.Cluster.PeerHitRatio)
	fmt.Fprintf(w, "%-28s %-5s %6s %9s %7s %8s %7s %6s  %s\n",
		"NODE", "UP", "QUEUE", "IN-FLIGHT", "WQUEUE", "RUNNING", "DISP", "ERRS", "STAGE CACHE (hit%)")
	for _, n := range st.Nodes {
		up := "yes"
		if !n.Up {
			up = "DOWN"
		}
		fmt.Fprintf(w, "%-28s %-5s %6d %9d %7d %8d %7d %6d  %s\n",
			n.Node, up, n.TicketQueueDepth, n.InFlightTickets,
			n.WorkerQueueDepth, n.WorkerJobs, n.Dispatched, n.Errors,
			renderStageCache(n.StageCache))
	}
}

// renderStageCache compresses the per-stage ratios into one cell:
// "place 80% route 50%" in stable stage order, "-" when the worker
// reported none.
func renderStageCache(stages map[string]struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}) string {
	if len(stages) == 0 {
		return "-"
	}
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s %.0f%%", name, 100*stages[name].HitRatio))
	}
	return strings.Join(parts, " ")
}
