package pack

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/flowmap"
)

// The two feasibility checks the Hall table replaced, kept as
// independent oracles: a max-flow over the roles → slot-types network
// for n PLBs, and a backtracking matcher of role instances to the
// distinct slots of one PLB.

// AggFeasibleOracle and CanPackOracle export the oracles to the
// external test package, which needs core's sweep archs.
var (
	AggFeasibleOracle = aggFeasibleOracle
	CanPackOracle     = canPackOracle
)

// aggFeasibleOracle checks by max-flow whether numPLBs PLBs can satisfy
// the aggregate role demand.
func aggFeasibleOracle(arch *cells.PLBArch, demand cells.Demand, numPLBs int) bool {
	slotServes := map[string][]cells.Role{}
	slotCount := map[string]int{}
	for _, s := range arch.Slots {
		slotServes[s.Component] = s.Serves
		slotCount[s.Component]++
	}
	types := make([]string, 0, len(slotServes))
	for k := range slotServes {
		types = append(types, k)
	}
	sort.Strings(types)
	// Nodes: 0 source, 1 sink, 2..1+NumRoles roles, then slot types.
	g := flowmap.NewDinic(2 + cells.NumRoles + len(types))
	total := 0
	for r, k := range demand {
		g.AddEdge(0, 2+r, int64(k))
		total += k
		for j, tname := range types {
			if slices.ContainsFunc(slotServes[tname], func(s cells.Role) bool { return s.Index() == r }) {
				g.AddEdge(2+r, 2+cells.NumRoles+j, flowmap.Inf)
			}
		}
	}
	for j, tname := range types {
		g.AddEdge(2+cells.NumRoles+j, 1, int64(slotCount[tname]*numPLBs))
	}
	return g.MaxFlow(0, 1, -1) >= int64(total)
}

// canPackOracle reports by exhaustive backtracking whether one PLB can
// host the demand with every role instance on a distinct slot.
func canPackOracle(arch *cells.PLBArch, demand cells.Demand) bool {
	var roles []int
	for r, k := range demand {
		for ; k > 0; k-- {
			roles = append(roles, r)
		}
	}
	if len(roles) > len(arch.Slots) {
		return false
	}
	used := make([]bool, len(arch.Slots))
	var match func(i int) bool
	match = func(i int) bool {
		if i == len(roles) {
			return true
		}
		for si, s := range arch.Slots {
			if used[si] || !slices.ContainsFunc(s.Serves, func(x cells.Role) bool { return x.Index() == roles[i] }) {
				continue
			}
			used[si] = true
			if match(i + 1) {
				return true
			}
			used[si] = false
		}
		return false
	}
	return match(0)
}

// packDigest is the SHA-256 of every test-suite design's array shape
// and PLBOf on both archs, as the max-flow packer produced them.
const packDigest = "f4d81d2b17984ced54fba33229afe497a19695a750fa6ba6b61e70d86886466e"

// TestPackAuditAgainstOracles packs every test-suite design on both
// archs with an audit that checks each feasibility answer the packer
// acts on against both oracles. It requires the PLB assignments to
// match the max-flow packer's (packDigest), and to be the same when
// packing again without the audit.
func TestPackAuditAgainstOracles(t *testing.T) {
	audits, mismatches := 0, 0
	fitsAudit = func(arch *cells.PLBArch, d cells.Demand, n int, ok bool) {
		audits++
		want := aggFeasibleOracle(arch, d, n)
		if n == 1 && canPackOracle(arch, d) != want {
			t.Errorf("%s: oracles disagree on %v", arch.Name, d)
		}
		if ok != want && mismatches < 10 {
			mismatches++
			t.Errorf("%s: fits(%v, %d) = %v, oracle %v", arch.Name, d, n, ok, want)
		}
	}
	defer func() { fitsAudit = nil }()

	digest := sha256.New()
	for _, design := range bench.TestSuite().All() {
		for _, arch := range []*cells.PLBArch{cells.LUTPLB(), cells.GranularPLB()} {
			nl, prob := prep(t, design.RTL, arch)
			asic := prob.Positions()
			audited, err := Run(nl, arch, prob, Options{Seed: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", design.Name, arch.Name, err)
			}
			saved := fitsAudit
			fitsAudit = nil
			if err := prob.SetPositions(asic); err != nil {
				t.Fatal(err)
			}
			plain, err := Run(nl, arch, prob, Options{Seed: 1})
			fitsAudit = saved
			if err != nil {
				t.Fatalf("%s/%s: %v", design.Name, arch.Name, err)
			}
			if !slices.Equal(audited.PLBOf, plain.PLBOf) {
				t.Errorf("%s/%s: PLBOf differs between audited and plain runs", design.Name, arch.Name)
			}
			fmt.Fprintln(digest, design.Name, arch.Name, audited.Rows, audited.Cols, audited.PLBOf)
		}
	}
	if audits == 0 {
		t.Fatal("audit never ran")
	}
	if got := fmt.Sprintf("%x", digest.Sum(nil)); got != packDigest {
		t.Errorf("PLB assignments changed: digest %s, want %s", got, packDigest)
	}
	t.Logf("%d feasibility answers cross-checked", audits)
}
