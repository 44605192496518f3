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

// Stage names of the cache's links; stageLinks orders them. FlowA
// omits StagePack.
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
// stage, and nothing else. Each link of stageLinks adds its knobs to
// the payload before its own key is taken. The place link adds no
// clock: its stored snapshot is the post-anneal placement, which the
// clock never reaches (net weighting + refinement rerun downstream).
// Flow is absent through the place link — flows a and b share the
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

// stageLink is one link of the stage cache's key chain. stageLinks is
// the one list of them: their order, the knobs each key adds, each
// artifact's decoder, and what RunMatrix's in-memory tier keeps.
type stageLink struct {
	stage string
	// flowB: only flow b's chain has the link.
	flowB bool
	// knobs adds the link's knobs to the cumulative key payload.
	knobs func(id *stageKeyID, d bench.Design, cfg Config)
	// decode turns stored bytes into the link's artifact, or nil (a
	// miss) for corrupt bytes, a newer schema or a failed shape check.
	decode func(raw []byte) any
	// positions: the artifact carries the object positions.
	positions bool
	// mem: RunMatrix's in-memory tier keeps the link's artifacts.
	mem bool
}

// stageLinks lists the links in pipeline order.
var stageLinks = []stageLink{
	{stage: StageMap,
		knobs: func(id *stageKeyID, d bench.Design, cfg Config) {
			rtl := sha256.Sum256([]byte(d.RTL))
			id.Design = d.Name
			id.RTLSHA = hex.EncodeToString(rtl[:])
			id.Arch = archSignature(cfg.Arch)
		},
		decode: decodeAs(func(a *mapArtifact) bool { return a.Netlist != nil })},
	{stage: StageCompact, mem: true,
		knobs:  func(id *stageKeyID, _ bench.Design, cfg Config) { id.Skip = cfg.SkipCompaction },
		decode: decodeAs(func(a *compactArtifact) bool { return a.Netlist != nil })},
	{stage: StagePlace, positions: true, mem: true,
		knobs: func(id *stageKeyID, _ bench.Design, cfg Config) {
			id.Seed = cfg.Seed
			id.Effort = cfg.PlaceEffort
			if id.Effort == 0 {
				id.Effort = 6
			}
			if cfg.Defects != nil {
				id.Defects = cfg.Defects.String()
			}
		},
		decode: decodeAs(func(a *placeArtifact) bool { return len(a.Positions) == 2*a.Objects })},
	{stage: StagePack, flowB: true, positions: true,
		knobs: func(id *stageKeyID, _ bench.Design, cfg Config) {
			id.Flow = cfg.Flow.String()
			id.Clock = cfg.ClockPeriod
		},
		decode: decodeAs(func(a *packArtifact) bool { return a.Pack != nil && len(a.Positions) == 2*a.Objects })},
	{stage: StageRoute,
		knobs: func(id *stageKeyID, _ bench.Design, cfg Config) {
			id.Flow = cfg.Flow.String()
			id.Clock = cfg.ClockPeriod
			id.CapacityScale = cfg.RouteCapacityScale
			id.CellsScale = cfg.RouteCellsScale
		},
		decode: decodeAs(func(a *routeArtifact) bool { return a.Routes != nil })},
}

// linkOf returns the named stage's link.
func linkOf(stage string) *stageLink {
	for i := range stageLinks {
		if stageLinks[i].stage == stage {
			return &stageLinks[i]
		}
	}
	return nil
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
	var id stageKeyID
	chain := make([]StageKey, 0, len(stageLinks))
	for _, l := range stageLinks {
		if l.flowB && cfg.Flow != FlowB {
			continue
		}
		l.knobs(&id, d, cfg)
		id.Stage = l.stage
		key, err := CanonicalKey(stageKeyNS, id)
		if err != nil {
			return nil, err
		}
		chain = append(chain, StageKey{Stage: l.stage, Key: key})
	}
	return chain, nil
}

// stagePrefix is the resolved cached prefix of one run: the stage-key
// chain, the index of the deepest link the cache can satisfy, and the
// decoded artifacts the restore reads.
type stagePrefix struct {
	chain []StageKey
	depth int   // chain index of the deepest cache-satisfied link; -1 = none
	arts  []any // decoded artifacts by chain index; nil = a miss or not probed
}

// resolvePrefix probes the stage cache for the deepest restorable
// prefix of the chain. A link is restorable when its artifact decodes
// along with every artifact its restore reads: past compaction, the
// compacted netlist; and a link whose artifact carries no positions
// (route) also reads the positions of the link before it. Each
// artifact is fetched at most once, deepest first. Decode failures
// are silent misses — the store already evicted anything corrupt.
func resolvePrefix(stages *StageCache, chain []StageKey) *stagePrefix {
	p := &stagePrefix{chain: chain, depth: -1, arts: make([]any, len(chain))}
	tried := make([]bool, len(chain))
	ok := func(i int) bool {
		if !tried[i] {
			tried[i] = true
			if raw, hit := stages.get(chain[i].Key); hit {
				p.arts[i] = linkOf(chain[i].Stage).decode(raw)
			}
		}
		return p.arts[i] != nil
	}
	compact := p.index(StageCompact)
	for i := len(chain) - 1; i >= 0; i-- {
		if ok(i) && (i <= compact || ok(compact) && (linkOf(chain[i].Stage).positions || ok(i-1))) {
			p.depth = i
			break
		}
	}
	return p
}

// index locates a stage in the chain (-1 when absent, e.g. pack in
// flow a).
func (p *stagePrefix) index(stage string) int {
	if p == nil {
		return -1
	}
	for i, sk := range p.chain {
		if sk.Stage == stage {
			return i
		}
	}
	return -1
}

// restored reports whether the cache satisfies the stage: its chain
// index is within the restored prefix.
func (p *stagePrefix) restored(stage string) bool {
	i := p.index(stage)
	return i >= 0 && i <= p.depth
}

// art returns a restored stage's decoded artifact.
func (p *stagePrefix) art(stage string) any {
	return p.arts[p.index(stage)]
}

// demote caps the restored depth at the named stage's predecessor —
// the fallback when a restore step fails shape validation mid-run.
func (p *stagePrefix) demote(stage string) {
	if i := p.index(stage); i >= 0 && p.depth >= i {
		p.depth = i - 1
	}
}

// key returns the chain key for a stage ("" when the prefix or stage
// is absent — the cache put becomes a no-op).
func (p *stagePrefix) key(stage string) string {
	if i := p.index(stage); i >= 0 {
		return p.chain[i].Key
	}
	return ""
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
// the links stageLinks marks mem, compact and place: their keys carry
// no flow and no clock, so both flows of one (design, arch) share them, while pack
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
	return c != nil && (c.store != nil || linkOf(stage).mem)
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
