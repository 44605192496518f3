package server

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// ring is the cluster's consistent-hash ring: content-addressed cache
// keys map to worker nodes through virtual-node points, so adding or
// removing one node remaps only ~1/N of the key space instead of
// reshuffling every key. Every node derives the same ring from the
// same membership list — "who owns key K" has one cluster-wide answer,
// which is what makes a single peer-cache lookup (instead of a
// broadcast) sufficient.
type ring struct {
	mu     sync.RWMutex
	live   map[string]bool
	points []ringPoint // points of live members, sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// vnodes spreads each member over enough points that key load stays
// within a few percent of uniform at small cluster sizes.
const vnodes = 64

// newRing builds a ring over the members, all initially live.
func newRing(members []string) *ring {
	r := &ring{live: make(map[string]bool, len(members))}
	for _, m := range members {
		r.live[m] = true
	}
	r.rebuild()
	return r
}

// rebuild regenerates the sorted point list from the live members.
// Callers hold r.mu.
func (r *ring) rebuild() {
	r.points = r.points[:0]
	for m, up := range r.live {
		if !up {
			continue
		}
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(m + "#" + strconv.Itoa(i)), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by name so every replica
		// of the ring agrees.
		return r.points[i].node < r.points[j].node
	})
}

// owner maps a key to its live owner ("" when no member is live).
func (r *ring) owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].node
}

// setLive marks a member up or down, rebuilding the point list; it
// reports whether the state actually changed.
func (r *ring) setLive(member string, up bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, known := r.live[member]
	if !known || cur == up {
		return false
	}
	r.live[member] = up
	r.rebuild()
	return true
}

// liveMembers returns the live members, sorted.
func (r *ring) liveMembers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for m, up := range r.live {
		if up {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// ringHash is FNV-1a 64: stdlib, stable across processes and builds —
// the ring must hash identically on every node.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
