package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"vpga/internal/aig"
	"vpga/internal/bench"
	"vpga/internal/cells"
	"vpga/internal/compact"
	"vpga/internal/logic"
	"vpga/internal/netlist"
	"vpga/internal/techmap"
)

// insertBuffersRebuild is the buffer-insertion loop as it was before
// the fanout snapshot: it asks the netlist for each driver's fanouts,
// rebuilding the whole index after every buffer tree. It is kept as
// the reference insertBuffers is tested against.
func insertBuffersRebuild(nl *netlist.Netlist) int {
	bufTT := logic.VarTT(1, 0)
	added := 0
	nodes := append([]*netlist.Node(nil), nl.Nodes()...)
	for _, n := range nodes {
		switch n.Kind {
		case netlist.KindGate, netlist.KindDFF, netlist.KindInput:
		default:
			continue
		}
		outs := append([]netlist.NodeID(nil), nl.Fanouts(n.ID)...)
		if len(outs) <= maxFanout {
			continue
		}
		var build func(sinks []netlist.NodeID) netlist.NodeID
		build = func(sinks []netlist.NodeID) netlist.NodeID {
			buf := nl.AddGate("BUF", bufTT, n.ID)
			added++
			if len(sinks) <= maxFanout {
				for _, s := range sinks {
					retarget(nl, s, n.ID, buf)
				}
				return buf
			}
			per := (len(sinks) + maxFanout - 1) / maxFanout
			if per < maxFanout {
				per = maxFanout
			}
			var children []netlist.NodeID
			for i := 0; i < len(sinks); i += per {
				end := min(i+per, len(sinks))
				children = append(children, build(sinks[i:end]))
			}
			for _, c := range children {
				nl.SetFanin(c, 0, buf)
			}
			return buf
		}
		var movable []netlist.NodeID
		for _, s := range outs {
			if nl.Node(s).Kind != netlist.KindOutput {
				movable = append(movable, s)
			}
		}
		if len(movable) <= maxFanout {
			continue
		}
		build(movable)
	}
	return added
}

// compactedNetlist runs d through the flow's front end and compaction
// on arch, stopping before buffer insertion.
func compactedNetlist(tb testing.TB, d bench.Design, arch *cells.PLBArch) *netlist.Netlist {
	tb.Helper()
	rtlNet, err := compileRTL(d)
	if err != nil {
		tb.Fatal(err)
	}
	des, err := aig.FromNetlist(rtlNet)
	if err != nil {
		tb.Fatal(err)
	}
	des.Optimize(3)
	mapped, err := techmap.Map(des, arch, techmap.Options{AreaPasses: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cres, err := compact.Run(mapped.Netlist, arch)
	if err != nil {
		tb.Fatal(err)
	}
	return cres.Netlist
}

// TestInsertBuffersMatchesRebuild buffers every design of both suites,
// and FIR, with the snapshot loop and with the per-tree rebuild
// reference, on both paper architectures: the netlists must encode
// byte-identically and report the same buffer count.
func TestInsertBuffersMatchesRebuild(t *testing.T) {
	designs := append(bench.TestSuite().All(), bench.PaperSuite().All()...)
	designs = append(designs, bench.FIR(8, 8))
	buffered := 0
	for _, d := range designs {
		for _, arch := range []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()} {
			got := compactedNetlist(t, d, arch)
			want := got.Clone()
			added, wantAdded := insertBuffers(got), insertBuffersRebuild(want)
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if added != wantAdded || !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("%s on %s: %d buffers, reference %d; netlists equal: %v",
					d.Name, arch.Name, added, wantAdded, bytes.Equal(gotJSON, wantJSON))
			}
			buffered += added
		}
	}
	if buffered == 0 {
		t.Fatal("no design needed a buffer; the comparison is vacuous")
	}
}

// BenchmarkInsertBuffers buffers the paper-scale FPU's compacted
// granular netlist; each iteration buffers a fresh clone.
func BenchmarkInsertBuffers(b *testing.B) {
	base := compactedNetlist(b, bench.PaperSuite().FPU, cells.GranularPLB())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nl := base.Clone()
		b.StartTimer()
		if insertBuffers(nl) == 0 {
			b.Fatal("no buffers inserted")
		}
	}
}
