package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"vpga/internal/fsx"
)

// ChromeEvent is one entry of the Chrome trace-event JSON array
// (chrome://tracing, Perfetto). Timestamps and durations are in
// microseconds relative to the trace's epoch. The coordinator decodes
// worker trace fragments into it and merges them into one timeline.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Micros converts a duration to the trace format's microseconds.
func Micros(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}

// WriteChromeTrace emits the tracer's telemetry as a Chrome
// trace-event JSON array: one complete ("X") event per run (solver
// metrics in its args), one per stage span, one instant ("i") event
// per repair attempt, plus thread-name metadata naming each worker
// row. Load the file in chrome://tracing or https://ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := w.Write([]byte("[]\n"))
		return err
	}
	runs := t.Runs()
	var events []ChromeEvent

	rows := map[int]bool{}
	for _, r := range runs {
		rows[r.Worker()] = true
	}
	procArgs := map[string]any{"name": "vpga flow"}
	if id := t.TraceID(); id != "" {
		procArgs["trace_id"] = id
	}
	events = append(events, ChromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: procArgs,
	})
	for row := range rows {
		events = append(events, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: row,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", row)},
		})
	}

	for _, r := range runs {
		r.mu.Lock()
		start, end, closed := r.start, r.end, r.closed
		spans := append([]Span(nil), r.spans...)
		attempts := append([]AttemptEvent(nil), r.attempts...)
		r.mu.Unlock()
		if !closed {
			end = r.tr.since()
		}
		sm := r.SolverMetrics()
		events = append(events, ChromeEvent{
			Name: r.Label(), Cat: "run", Ph: "X",
			Ts: Micros(start), Dur: Micros(end - start), Pid: 1, Tid: r.Worker(),
			Args: map[string]any{
				"anneal_passes":        sm.AnnealPasses,
				"anneal_proposed":      sm.AnnealProposed,
				"anneal_accepted":      sm.AnnealAccepted,
				"anneal_final_cost":    sm.AnnealFinalCost,
				"route_iterations":     sm.RouteIterations,
				"route_best_iteration": sm.RouteBestIteration,
				"route_overflows":      sm.RouteOverflows,
				"repair_attempts":      sm.RepairAttempts,
			},
		})
		for _, s := range spans {
			events = append(events, ChromeEvent{
				Name: s.Stage, Cat: "stage", Ph: "X",
				Ts: Micros(s.Start), Dur: Micros(s.Dur), Pid: 1, Tid: r.Worker(),
				Args: map[string]any{"run": r.Label()},
			})
		}
		for _, a := range attempts {
			name := fmt.Sprintf("attempt %d: %s", a.Attempt, a.Action)
			args := map[string]any{"run": r.Label()}
			if a.Err != "" {
				args["error"] = a.Err
			}
			events = append(events, ChromeEvent{
				Name: name, Cat: "repair", Ph: "i",
				Ts: Micros(a.At), Pid: 1, Tid: r.Worker(), S: "t",
				Args: args,
			})
		}
	}

	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ph == "M" != (events[j].Ph == "M") {
			return events[i].Ph == "M"
		}
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		return events[i].Tid < events[j].Tid
	})

	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// WriteChromeTraceFile writes the Chrome trace to path atomically
// (temp file + fsync + rename), so an interrupted write leaves the
// previous trace intact instead of a truncated JSON array.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	return fsx.WriteFileAtomic(path, 0o644, t.WriteChromeTrace)
}
