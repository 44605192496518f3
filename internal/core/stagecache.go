package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"vpga/internal/artifact"
	"vpga/internal/bench"
	"vpga/internal/cells"
)

// The stage-granular build cache: every stage boundary of the flow —
// mapped netlist, compacted+buffered netlist, placement, packed array,
// routing — produces a serializable, content-addressed artifact, and a
// run resolves the deepest cached prefix of its stage-key chain,
// restores it bit-identically, and computes only the suffix. Keys are
// cumulative: each stage's key hashes exactly the knobs upstream of
// that stage, so flow-a and flow-b requests share mapped/compacted
// netlists and placements, a clock-target sweep shares everything
// through placement, and a routing-knob variant re-routes a restored
// placement. This generalizes PR 7's placement checkpoint layer (one
// stage, namespace "ckpt/place/v1") into a single keying scheme under
// namespace "stage/v1"; old checkpoint entries are simply never hit
// again and age out of the store.

// stageKeyNS versions the key derivation; bump it when a stage's
// inputs or artifact payload change incompatibly.
const stageKeyNS = "stage/v1"

// Stage names, in pipeline order. FlowA omits StagePack.
const (
	StageMap     = "map"
	StageCompact = "compact"
	StagePlace   = "place"
	StagePack    = "pack"
	StageRoute   = "route"
)

// StageKey is one link of a request's per-stage key chain: the stage
// name and the content address of the artifact its boundary produces.
type StageKey struct {
	Stage string `json:"stage"`
	Key   string `json:"key"`
}

// StageUse records how one stage of an executed run was satisfied:
// restored from the stage cache (Hit) or computed. The flow appends
// one record per chain link to Report.StageCache, in pipeline order.
type StageUse struct {
	Stage string `json:"stage"`
	Key   string `json:"key"`
	Hit   bool   `json:"hit"`
}

// stageKeyID is the key payload: the cumulative knob set upstream of a
// stage, and nothing else. Field presence per stage:
//
//	map:     Design, RTLSHA, Arch
//	compact: + SkipCompaction
//	place:   + Seed, Effort, Defects        (no clock: the stored
//	         snapshot is the post-anneal placement, which the clock
//	         never reaches — net weighting + refinement rerun downstream)
//	pack:    + Flow, Clock                  (flow b only)
//	route:   + Flow, Clock, CapacityScale, CellsScale
//
// Flow is absent through the place stage — flows a and b share the
// whole pre-pack pipeline. Seed IS present from place on, so the
// repair ladder's reseeding rungs key fresh placements, while its
// channel-widening rungs differ only in the route link and reuse
// everything above it.
type stageKeyID struct {
	Stage         string  `json:"stage"`
	Design        string  `json:"design"`
	RTLSHA        string  `json:"rtl_sha"`
	Arch          string  `json:"arch"`
	Skip          bool    `json:"skip_compaction,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Effort        int     `json:"effort,omitempty"`
	Defects       string  `json:"defects,omitempty"`
	Flow          string  `json:"flow,omitempty"`
	Clock         float64 `json:"clock,omitempty"`
	CapacityScale float64 `json:"capacity_scale,omitempty"`
	CellsScale    float64 `json:"cells_scale,omitempty"`
}

// archSignature flattens the parts of a PLB architecture that shape
// the flow — name, tile areas, and the slot inventory — into a stable
// string, so two distinct custom architectures sharing a name cannot
// collide on one stage key.
func archSignature(a *cells.PLBArch) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|area=%g|comb=%g", a.Name, a.Area, a.CombArea)
	for _, s := range a.Slots {
		fmt.Fprintf(&sb, "|%s:%v", s.Component, s.Serves)
	}
	return sb.String()
}

// stageChain derives the ordered per-stage key chain for a resolved
// (design, config) pair. It hashes the resolved Config rather than the
// originating request because the repair ladder mutates the config
// between attempts — each rung keys exactly the artifacts it can
// legitimately reuse.
func stageChain(d bench.Design, cfg Config) ([]StageKey, error) {
	if cfg.Arch == nil {
		return nil, fmt.Errorf("core: stage keys need a resolved architecture")
	}
	effort := cfg.PlaceEffort
	if effort == 0 {
		effort = 6
	}
	rtl := sha256.Sum256([]byte(d.RTL))
	id := stageKeyID{
		Design: d.Name,
		RTLSHA: hex.EncodeToString(rtl[:]),
		Arch:   archSignature(cfg.Arch),
	}
	push := func(chain []StageKey, stage string) ([]StageKey, error) {
		id.Stage = stage
		key, err := CanonicalKey(stageKeyNS, id)
		if err != nil {
			return nil, err
		}
		return append(chain, StageKey{Stage: stage, Key: key}), nil
	}

	chain := make([]StageKey, 0, 5)
	var err error
	if chain, err = push(chain, StageMap); err != nil {
		return nil, err
	}
	id.Skip = cfg.SkipCompaction
	if chain, err = push(chain, StageCompact); err != nil {
		return nil, err
	}
	id.Seed = cfg.Seed
	id.Effort = effort
	if cfg.Defects != nil {
		id.Defects = cfg.Defects.String()
	}
	if chain, err = push(chain, StagePlace); err != nil {
		return nil, err
	}
	id.Flow = cfg.Flow.String()
	id.Clock = cfg.ClockPeriod
	if cfg.Flow == FlowB {
		if chain, err = push(chain, StagePack); err != nil {
			return nil, err
		}
	}
	id.CapacityScale = cfg.RouteCapacityScale
	id.CellsScale = cfg.RouteCellsScale
	if chain, err = push(chain, StageRoute); err != nil {
		return nil, err
	}
	return chain, nil
}

// StageKeys resolves the request and returns its ordered per-stage key
// chain — the content addresses the run's artifacts live under. Two
// requests share a prefix of their chains exactly when a run of one
// can restore the other's artifacts through that depth: clients
// compare chains to predict which prefix a run will reuse.
func (r FlowRequest) StageKeys() ([]StageKey, error) {
	d, cfg, err := r.Resolve()
	if err != nil {
		return nil, err
	}
	return stageChain(d, cfg)
}

// StageCounts is one stage's cache counters.
type StageCounts struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// StageCacheStats maps stage name to counters. Stages lists the keys
// sorted, for deterministic rendering.
type StageCacheStats map[string]StageCounts

// Stages returns the stat's stage names, sorted.
func (s StageCacheStats) Stages() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// StageCache is the stage-granular build cache: an artifact store plus
// per-stage hit/miss counters. It is safe for concurrent use by any
// number of flow runs (the daemon shares one across all jobs).
//
// A stage counts a hit when the run satisfied it from the cache —
// restored directly, or skipped entirely because a deeper artifact
// already carried its output — and a miss when the run computed it.
// Like tracing, the cache is pure acceleration: reports are
// bit-identical (after StripMetrics) with or without it.
//
// RunMatrix without a cache of its own backs each (design, arch) with
// an in-memory tier (newMemStageCache): a map instead of a store,
// keeping only the stages the other flow of the pair can restore.
type StageCache struct {
	store *artifact.Store
	mem   map[string][]byte // the in-memory tier's artifacts (store is nil)

	mu     sync.Mutex
	counts map[string]*StageCounts
}

// NewStageCache wraps an artifact store as a stage cache. A nil store
// yields a nil cache (every lookup misses, nothing is stored).
func NewStageCache(store *artifact.Store) *StageCache {
	if store == nil {
		return nil
	}
	return &StageCache{store: store, counts: make(map[string]*StageCounts)}
}

// newMemStageCache returns an empty in-memory stage cache. It keeps only
// the compact and place artifacts: their keys carry no flow and no
// clock, so both flows of one (design, arch) share them, while pack
// and route keys are unique to one matrix cell and would only hold
// memory. Each artifact has one reader — the pair's flow b — so a
// lookup hands the artifact over and drops it from the map. A repair
// ladder that reads one twice recomputes it the second time; reports
// are the same either way.
func newMemStageCache() *StageCache {
	return &StageCache{mem: make(map[string][]byte), counts: make(map[string]*StageCounts)}
}

// keeps reports whether the cache stores the stage's artifacts, so a
// run skips encoding the ones it would drop.
func (c *StageCache) keeps(stage string) bool {
	return c != nil && (c.store != nil || stage == StageCompact || stage == StagePlace)
}

// Store exposes the underlying artifact store.
func (c *StageCache) Store() *artifact.Store {
	if c == nil {
		return nil
	}
	return c.store
}

// Stats snapshots the per-stage counters.
func (c *StageCache) Stats() StageCacheStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(StageCacheStats, len(c.counts))
	for k, v := range c.counts {
		out[k] = *v
	}
	return out
}

func (c *StageCache) bump(stage string, hit bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	sc := c.counts[stage]
	if sc == nil {
		sc = &StageCounts{}
		c.counts[stage] = sc
	}
	if hit {
		sc.Hits++
	} else {
		sc.Misses++
	}
	c.mu.Unlock()
}

// get fetches raw artifact bytes; every store-level failure is a miss.
// Counting is the pipeline's job (a fetched artifact may still fail to
// decode, which must count as a miss).
func (c *StageCache) get(key string) ([]byte, bool) {
	if c == nil || key == "" {
		return nil, false
	}
	if c.store == nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		raw, ok := c.mem[key]
		delete(c.mem, key)
		return raw, ok
	}
	return c.store.Get(key)
}

// put stores an artifact, best-effort: a failed save costs a later run
// its shortcut, never this run its result.
func (c *StageCache) put(key string, payload []byte) {
	if c == nil || key == "" || payload == nil {
		return
	}
	if c.store == nil {
		c.mu.Lock()
		c.mem[key] = payload
		c.mu.Unlock()
		return
	}
	c.store.Put(key, payload)
}
