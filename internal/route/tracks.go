package route

// Track assignment: the detailed-routing stage. Global routing decides
// which grid edges each net crosses; track assignment binds every
// crossing to a physical track within the channel, reusing the same
// track across consecutive collinear edges where possible (each track
// change or direction change costs a via — these are the real,
// mask-defined vias of the VPGA's upper routing layers).

// TrackAssignment is the detailed-routing outcome.
type TrackAssignment struct {
	// NetTracks[n][k] is the track assigned to net n's k-th routed edge
	// (ordering matches the net's internal edge list); -1 when the
	// channel was over capacity and the crossing is left unassigned.
	NetTracks [][]int16
	// RoutingVias counts layer/track changes across the fabric.
	RoutingVias int
	// Unassigned counts crossings left without a legal track (nonzero
	// only when the global router finished with overflow).
	Unassigned int
	// PeakTrack is the highest track index used anywhere.
	PeakTrack int
}

// AssignTracks runs greedy track assignment over the routed design.
// Nets are processed in decreasing edge count (long nets get first
// pick); each net prefers to continue on its previous track and
// otherwise takes the lowest free track of the channel.
func (r *Result) AssignTracks() *TrackAssignment {
	capacity := r.capacity
	// Occupancy per edge: a bitset of capacity tracks.
	words := (capacity + 63) / 64
	hOcc := make([]uint64, len(r.hEdges)*words)
	vOcc := make([]uint64, len(r.vEdges)*words)

	ta := &TrackAssignment{NetTracks: make([][]int16, len(r.netEdges))}

	order := make([]int, len(r.netEdges))
	for i := range order {
		order[i] = i
	}
	// Longest nets first.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && len(r.netEdges[order[j]]) > len(r.netEdges[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	takeTrack := func(occ []uint64, edge int, prefer int16) int16 {
		base := edge * words
		if prefer >= 0 && occ[base+int(prefer)/64]>>(uint(prefer)%64)&1 == 0 {
			occ[base+int(prefer)/64] |= 1 << (uint(prefer) % 64)
			return prefer
		}
		for t := 0; t < capacity; t++ {
			if occ[base+t/64]>>(uint(t)%64)&1 == 0 {
				occ[base+t/64] |= 1 << (uint(t) % 64)
				return int16(t)
			}
		}
		return -1
	}

	for _, ni := range order {
		edges := r.netEdges[ni]
		tracks := make([]int16, len(edges))
		prev := int16(-1)
		prevHoriz := false
		for k, e := range edges {
			occ := vOcc
			if e.horizontal {
				occ = hOcc
			}
			prefer := int16(-1)
			if k > 0 && prevHoriz == e.horizontal {
				prefer = prev
			}
			t := takeTrack(occ, int(e.idx), prefer)
			tracks[k] = t
			switch {
			case t < 0:
				ta.Unassigned++
			case k == 0:
				ta.RoutingVias++ // pin escape via
			case prevHoriz != e.horizontal:
				ta.RoutingVias++ // layer change
			case t != prev:
				ta.RoutingVias++ // track jog
			}
			if int(t) > ta.PeakTrack {
				ta.PeakTrack = int(t)
			}
			prev, prevHoriz = t, e.horizontal
		}
		ta.NetTracks[ni] = tracks
	}
	return ta
}
