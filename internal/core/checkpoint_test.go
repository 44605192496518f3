package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vpga/internal/artifact"
)

// The placement checkpoint is the stage cache's place artifact: the
// post-anneal positions a run stores and every later run sharing the
// place key restores instead of annealing. These tests attach it
// through ExecOptions.Stages over an artifact store.

func ckptStore(t *testing.T) *artifact.Store {
	t.Helper()
	st, err := artifact.Open(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runWithStore executes req against a stage cache over store and
// returns the stripped report plus the run's anneal-proposal count
// (zero iff the placement was restored from the store).
func runWithStore(t *testing.T, req FlowRequest, store *artifact.Store) (*Report, int64) {
	t.Helper()
	rep, _, proposed := runWithStages(t, req, NewStageCache(store))
	return rep, proposed
}

// TestPlaceCheckpointResume: a run that restores the placement
// checkpoint skips annealing entirely and still produces a report
// bit-identical to the cold run's.
func TestPlaceCheckpointResume(t *testing.T) {
	req := FlowRequest{Design: "alu", Arch: ArchSpec{Kind: "granular"},
		Flow: "b", Seed: 11, PlaceEffort: 2}
	cold := runReport(t, req)
	cold.StripMetrics()

	store := ckptStore(t)
	warm, proposed := runWithStore(t, req, store)
	if proposed == 0 {
		t.Fatal("first store-backed run found a checkpoint in an empty store")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("store-backed run diverged from cold run:\ncold %+v\nwarm %+v", cold, warm)
	}
	if store.Len() == 0 {
		t.Fatal("run saved no checkpoint")
	}

	hit, proposed := runWithStore(t, req, store)
	if proposed != 0 {
		t.Fatalf("checkpoint hit still annealed (%d proposals)", proposed)
	}
	if !reflect.DeepEqual(cold, hit) {
		t.Fatalf("resumed run diverged from cold run:\ncold %+v\nhit %+v", cold, hit)
	}
}

// TestPlaceCheckpointSharing: flows a and b share the pre-pack
// pipeline, so a flow-a variant restores the placement a flow-b run
// checkpointed; a reseeded request must miss.
func TestPlaceCheckpointSharing(t *testing.T) {
	base := FlowRequest{Design: "alu", Arch: ArchSpec{Kind: "granular"},
		Flow: "b", Seed: 11, PlaceEffort: 2}
	store := ckptStore(t)
	if _, proposed := runWithStore(t, base, store); proposed == 0 {
		t.Fatal("seeding run found a checkpoint in an empty store")
	}

	flowA := base
	flowA.Flow = "a"
	if _, proposed := runWithStore(t, flowA, store); proposed != 0 {
		t.Fatalf("flow-a variant re-annealed (%d proposals)", proposed)
	}

	reseeded := base
	reseeded.Seed = 12
	if _, proposed := runWithStore(t, reseeded, store); proposed == 0 {
		t.Fatal("reseeded request reused the old placement")
	}
}

// TestPlaceCheckpointCorruptEntry: a corrupted checkpoint is a silent
// miss — the run recomputes, the store evicts, and the report matches
// the clean run exactly.
func TestPlaceCheckpointCorruptEntry(t *testing.T) {
	req := FlowRequest{Design: "alu", Arch: ArchSpec{Kind: "granular"},
		Flow: "b", Seed: 11, PlaceEffort: 2}
	store := ckptStore(t)
	clean, _ := runWithStore(t, req, store)

	// Corrupt every stored entry in place (truncate to half).
	ents, err := os.ReadDir(store.Dir())
	if err != nil || len(ents) == 0 {
		t.Fatalf("no checkpoint entries to corrupt: %v", err)
	}
	for _, e := range ents {
		p := filepath.Join(store.Dir(), e.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rep, proposed := runWithStore(t, req, store)
	if proposed == 0 {
		t.Fatal("corrupt checkpoint was restored")
	}
	if !reflect.DeepEqual(clean, rep) {
		t.Fatal("recomputed run diverged from clean run")
	}
	if store.Stats().CorruptEvicted == 0 {
		t.Fatal("corrupt entry was not evicted")
	}
}
