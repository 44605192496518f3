package core

import (
	"fmt"
	"math/rand"
	"testing"

	"vpga/internal/aig"
	"vpga/internal/cells"
	"vpga/internal/compact"
	"vpga/internal/logic"
	"vpga/internal/netlist"
	"vpga/internal/techmap"
	"vpga/internal/viamap"
)

// randomNetlist builds a random sequential netlist: nPI inputs, nGate
// gates of random ≤3-input functions over earlier nodes, nFF
// flip-flops with random D cones, and nPO outputs.
func randomNetlist(rng *rand.Rand, nPI, nGate, nFF, nPO int) *netlist.Netlist {
	nl := netlist.New(fmt.Sprintf("rand%d", rng.Int31()))
	var pool []netlist.NodeID
	for i := 0; i < nPI; i++ {
		pool = append(pool, nl.AddInput(fmt.Sprintf("i%d", i)))
	}
	var ffs []netlist.NodeID
	for i := 0; i < nFF; i++ {
		ff := nl.AddDFF(fmt.Sprintf("r%d", i), 0)
		nl.SetFanin(ff, 0, ff)
		pool = append(pool, ff)
		ffs = append(ffs, ff)
	}
	for i := 0; i < nGate; i++ {
		k := 1 + rng.Intn(3)
		fn := logic.NewTT(k, rng.Uint64())
		fanins := make([]netlist.NodeID, k)
		for j := range fanins {
			fanins[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, nl.AddGate("G", fn, fanins...))
	}
	for _, ff := range ffs {
		nl.SetFanin(ff, 0, pool[rng.Intn(len(pool))])
	}
	for i := 0; i < nPO; i++ {
		nl.AddOutput(fmt.Sprintf("o%d", i), pool[len(pool)-1-rng.Intn(min(len(pool), nGate+1))])
	}
	return nl
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestPipelinePropertyRandomNetlists fuzzes the synthesis pipeline:
// for random netlists, optimize → map → compact on both architectures
// must preserve sequential behaviour, keep every instance within three
// inputs, and never grow the gate area during compaction.
func TestPipelinePropertyRandomNetlists(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	archs := []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()}
	for trial := 0; trial < 25; trial++ {
		nl := randomNetlist(rng, 2+rng.Intn(5), 5+rng.Intn(40), rng.Intn(5), 1+rng.Intn(4))
		if err := nl.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid netlist: %v", trial, err)
		}
		d, err := aig.FromNetlist(nl)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		d.Optimize(2)
		for _, arch := range archs {
			mapped, err := techmap.Map(d, arch, techmap.Options{})
			if err != nil {
				t.Fatalf("trial %d %s: map: %v", trial, arch.Name, err)
			}
			if err := netlist.Equivalent(nl, mapped.Netlist, 6, 5, int64(trial)); err != nil {
				t.Fatalf("trial %d %s: mapping broke behaviour: %v", trial, arch.Name, err)
			}
			cres, err := compact.Run(mapped.Netlist, arch)
			if err != nil {
				t.Fatalf("trial %d %s: compact: %v", trial, arch.Name, err)
			}
			if err := netlist.Equivalent(nl, cres.Netlist, 6, 5, int64(trial)+1); err != nil {
				t.Fatalf("trial %d %s: compaction broke behaviour: %v", trial, arch.Name, err)
			}
			if cres.AreaAfter > cres.AreaBefore+1e-9 {
				t.Fatalf("trial %d %s: compaction grew area %.2f -> %.2f",
					trial, arch.Name, cres.AreaBefore, cres.AreaAfter)
			}
			for _, n := range cres.Netlist.Nodes() {
				if n.Kind == netlist.KindGate && len(n.Fanins) > 3 {
					t.Fatalf("trial %d %s: instance with %d inputs", trial, arch.Name, len(n.Fanins))
				}
				if n.Kind == netlist.KindGate && n.Type != "INV" && n.Type != "BUF" {
					if cfg := arch.Config(n.Type); cfg == nil {
						t.Fatalf("trial %d %s: unknown config %q", trial, arch.Name, n.Type)
					} else if !cfg.Implements(n.Func) {
						t.Fatalf("trial %d %s: %s cannot implement %v", trial, arch.Name, n.Type, n.Func)
					}
				}
			}
		}
	}
}

// TestFullFlowPropertyRandomNetlists pushes a handful of random
// designs through the entire flow (both flows) and checks report
// invariants.
func TestFullFlowPropertyRandomNetlists(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow fuzz is slow")
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		nl := randomNetlist(rng, 4+rng.Intn(4), 30+rng.Intn(60), 2+rng.Intn(6), 2+rng.Intn(4))
		// Wrap as a bench design via the netlist's dump... RunFlow wants
		// RTL, so drive the internal stages directly instead.
		d, err := aig.FromNetlist(nl)
		if err != nil {
			t.Fatal(err)
		}
		d.Optimize(2)
		for _, arch := range []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()} {
			mapped, err := techmap.Map(d, arch, techmap.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cres, err := compact.Run(mapped.Netlist, arch)
			if err != nil {
				t.Fatal(err)
			}
			impl := cres.Netlist
			insertBuffers(impl)
			if err := netlist.Equivalent(nl, impl, 6, 4, int64(trial)); err != nil {
				t.Fatalf("trial %d %s: buffering broke behaviour: %v", trial, arch.Name, err)
			}
		}
	}
}

// TestViaProgramsForAllCompactedInstances checks that every instance
// the compactor emits can be personalized to vias (the E3/viamap
// bridge) on randomized logic.
func TestViaProgramsForAllCompactedInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	arch := cells.GranularPLB()
	for trial := 0; trial < 10; trial++ {
		nl := randomNetlist(rng, 3+rng.Intn(4), 20+rng.Intn(30), rng.Intn(4), 2)
		d, err := aig.FromNetlist(nl)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := techmap.Map(d, arch, techmap.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cres, err := compact.Run(mapped.Netlist, arch)
		if err != nil {
			t.Fatal(err)
		}
		insertBuffers(cres.Netlist)
		if _, err := viamap.FabricVias(cres.Netlist, arch); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
