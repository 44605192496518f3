package core

import (
	"encoding/json"

	"vpga/internal/netlist"
	"vpga/internal/pack"
	"vpga/internal/route"
)

// Stage artifact payloads. Each artifact is cumulative: it carries its
// stage's output plus every report field the stages above it produced,
// so restoring at depth N needs no artifact shallower than N's own
// restore dependencies (see resolvePrefix).
// All payloads are schema-versioned JSON; any decode failure — corrupt
// bytes, newer schema, shape mismatch — is a cache miss, never an
// error: the pipeline recomputes and overwrites.

// stageArtifactSchema versions every stage payload together; bump it
// (or stageKeyNS) when a payload changes incompatibly.
const stageArtifactSchema = 1

// mapArtifact is the technology-mapping boundary: the mapped component
// netlist before compaction.
type mapArtifact struct {
	Schema    int              `json:"schema"`
	Netlist   *netlist.Netlist `json:"netlist"`
	GateCount float64          `json:"gate_count"`
}

// compactArtifact is the logic-synthesis boundary: the compacted (or
// identity-configured) netlist after fanout buffer insertion — the
// exact netlist every physical stage consumes.
type compactArtifact struct {
	Schema          int              `json:"schema"`
	Netlist         *netlist.Netlist `json:"netlist"`
	GateCount       float64          `json:"gate_count"`
	Reduction       float64          `json:"reduction"`
	ConfigCounts    map[string]int   `json:"config_counts,omitempty"`
	FullAdders      int              `json:"full_adders,omitempty"`
	BuffersInserted int              `json:"buffers_inserted,omitempty"`
}

// placeArtifact is the post-anneal placement snapshot: the flat
// position array in object order. Deliberately pre-refinement — net
// weighting and refinement depend on the clock target, which the place
// key excludes, so they rerun in the suffix (cheap and deterministic)
// and a clock-target sweep shares one annealed placement.
type placeArtifact struct {
	Schema    int       `json:"schema"`
	Objects   int       `json:"objects"`
	Positions []float64 `json:"positions"`
}

// packArtifact is the flow-b packing boundary: the pack result plus
// the legalized (post-pack) positions the router and post-layout
// analyses read.
type packArtifact struct {
	Schema    int          `json:"schema"`
	Pack      *pack.Result `json:"pack"`
	Objects   int          `json:"objects"`
	Positions []float64    `json:"positions"`
}

// routeArtifact is the routing boundary: the full routed design
// (route.Result carries its own wire-form schema).
type routeArtifact struct {
	Schema int           `json:"schema"`
	Routes *route.Result `json:"routes"`
}

// encodeStage marshals a payload, returning nil on failure (the caller
// simply stores nothing).
func encodeStage(v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return enc
}

// decodeStage unmarshals raw artifact bytes into out, rejecting newer
// schemas. schema is the payload's schema field, extracted first so a
// future payload shape cannot half-populate out.
func decodeStage(raw []byte, out any) bool {
	var probe struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil || probe.Schema > stageArtifactSchema {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// decodeAs returns a link's decoder: raw bytes that decode into a *T
// passing the link's shape check fits, and nil for anything else.
func decodeAs[T any](fits func(*T) bool) func([]byte) any {
	return func(raw []byte) any {
		a := new(T)
		if !decodeStage(raw, a) || !fits(a) {
			return nil
		}
		return a
	}
}
