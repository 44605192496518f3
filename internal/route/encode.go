package route

import (
	"encoding/json"
	"fmt"
)

// JSON encoding of a routed design, used by the stage-granular
// artifact pipeline to serialize the routing stage's output. The wire
// form carries every field a consumer of a *Result can observe —
// lengths, sink distances, overflow, the RC model scalars behind
// WireRC/NetCap/Capacity, and the per-edge usage + per-net edge lists
// behind AssignTracks — so a decoded result is indistinguishable from
// the one the router produced. Transport-only state (pool, context,
// trace, fault model) is deliberately absent: a restored result is
// inert data.

// encRouteSchema versions the wire form; decoders reject anything
// newer.
const encRouteSchema = 1

type encResult struct {
	Schema         int         `json:"schema"`
	CellsX         int         `json:"cells_x"`
	CellsY         int         `json:"cells_y"`
	BinW           float64     `json:"bin_w"`
	BinH           float64     `json:"bin_h"`
	NetLength      []float64   `json:"net_length"`
	Total          float64     `json:"total"`
	SinkDist       [][]float64 `json:"sink_dist"`
	Overflow       int         `json:"overflow"`
	MaxUtilization float64     `json:"max_utilization"`
	Iterations     int         `json:"iterations"`

	// The RC/capacity model scalars the Result's methods read.
	Capacity             int     `json:"capacity"`
	RPerUnit             float64 `json:"r_per_unit"`
	CPerUnit             float64 `json:"c_per_unit"`
	RepeatedDelayPerUnit float64 `json:"repeated_delay_per_unit"`
	MaxLoadFF            float64 `json:"max_load_ff"`

	// NetEdges[n][k] packs edgeRef{horizontal, idx} as idx<<1|horiz.
	NetEdges [][]int32 `json:"net_edges"`
	HEdges   []int16   `json:"h_edges"`
	VEdges   []int16   `json:"v_edges"`
}

// MarshalJSON encodes the routed design.
func (r *Result) MarshalJSON() ([]byte, error) {
	enc := encResult{
		Schema: encRouteSchema,
		CellsX: r.CellsX, CellsY: r.CellsY, BinW: r.BinW, BinH: r.BinH,
		NetLength: r.NetLength, Total: r.Total, SinkDist: r.SinkDist,
		Overflow: r.Overflow, MaxUtilization: r.MaxUtilization, Iterations: r.Iterations,
		Capacity: r.capacity, RPerUnit: r.wire.rPerUnit, CPerUnit: r.wire.cPerUnit,
		RepeatedDelayPerUnit: r.wire.repeatedDelayPerUnit, MaxLoadFF: r.wire.maxLoadFF,
		HEdges: r.hEdges, VEdges: r.vEdges,
	}
	enc.NetEdges = make([][]int32, len(r.netEdges))
	for ni, edges := range r.netEdges {
		packed := make([]int32, len(edges))
		for k, e := range edges {
			p := e.idx << 1
			if e.horizontal {
				p |= 1
			}
			packed[k] = p
		}
		enc.NetEdges[ni] = packed
	}
	return json.Marshal(enc)
}

// UnmarshalJSON decodes a result encoded by MarshalJSON.
func (r *Result) UnmarshalJSON(data []byte) error {
	var enc encResult
	if err := json.Unmarshal(data, &enc); err != nil {
		return err
	}
	if enc.Schema > encRouteSchema {
		return fmt.Errorf("route: wire schema %d is newer than supported %d", enc.Schema, encRouteSchema)
	}
	*r = Result{
		CellsX: enc.CellsX, CellsY: enc.CellsY, BinW: enc.BinW, BinH: enc.BinH,
		NetLength: enc.NetLength, Total: enc.Total, SinkDist: enc.SinkDist,
		Overflow: enc.Overflow, MaxUtilization: enc.MaxUtilization, Iterations: enc.Iterations,
		capacity: enc.Capacity,
		wire:     wireModel{enc.RPerUnit, enc.CPerUnit, enc.RepeatedDelayPerUnit, enc.MaxLoadFF},
		hEdges:   enc.HEdges, vEdges: enc.VEdges,
	}
	r.netEdges = make([][]edgeRef, len(enc.NetEdges))
	for ni, packed := range enc.NetEdges {
		edges := make([]edgeRef, len(packed))
		for k, p := range packed {
			edges[k] = edgeRef{horizontal: p&1 != 0, idx: p >> 1}
		}
		r.netEdges[ni] = edges
	}
	return nil
}
