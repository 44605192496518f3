package obs

// Event is one live telemetry event of a tracer: a run opening or
// closing, a stage span starting or ending, or a repair attempt.
// Events are the push-side view of the same telemetry the spans
// record: a subscriber polling EventsSince/Wait sees a run's stages
// while the run is still in flight, which is what the daemon's SSE
// endpoint (GET /v1/runs/{id}/events) streams.
//
// Timestamps are microseconds since the tracer epoch, matching the
// Chrome trace-event convention.
type Event struct {
	// Seq is the event's 1-based position in the tracer's event log.
	Seq int64 `json:"seq"`
	// Type is "run_start", "stage_start", "stage_end", "attempt" or
	// "run_end".
	Type string `json:"type"`
	// Run is the owning run's label, Worker its trace row.
	Run    string `json:"run"`
	Worker int    `json:"worker"`
	// Stage names the flow stage for stage_start/stage_end events.
	Stage string `json:"stage,omitempty"`
	// TsUS is the event time; DurUS is the span length (stage_end only).
	TsUS  float64 `json:"ts_us"`
	DurUS float64 `json:"dur_us,omitempty"`
	// Attempt and Error carry the repair-ladder payload of "attempt"
	// events.
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
}

// publish appends ev to the event log and wakes every waiter. A nil
// tracer publishes nothing.
func (t *Tracer) publish(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.Seq = int64(len(t.events)) + 1
	t.events = append(t.events, ev)
	for _, ch := range t.waiters {
		close(ch)
	}
	t.waiters = nil
	t.mu.Unlock()
}

// EventsSince returns a copy of the events after the cursor (the count
// of events already consumed). A nil tracer has no events.
func (t *Tracer) EventsSince(cursor int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor >= len(t.events) {
		return nil
	}
	return append([]Event(nil), t.events[cursor:]...)
}

// Wait returns a channel that is closed once the tracer holds more
// than cursor events; if it already does, the channel comes back
// closed. Subscribers loop: drain EventsSince, then select on Wait
// against their own cancellation.
func (t *Tracer) Wait(cursor int) <-chan struct{} {
	ch := make(chan struct{})
	if t == nil {
		close(ch)
		return ch
	}
	t.mu.Lock()
	if len(t.events) > cursor {
		close(ch)
	} else {
		t.waiters = append(t.waiters, ch)
	}
	t.mu.Unlock()
	return ch
}
