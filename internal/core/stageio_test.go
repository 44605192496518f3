package core

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"vpga/internal/artifact"
	"vpga/internal/bench"
	"vpga/internal/cells"
)

// FuzzDecodeStage feeds raw bytes to one link's artifact decoder. Every
// input is a miss or an artifact, never a panic, and an accepted
// artifact's encoding decodes and re-encodes to the same bytes. The
// seeds are every artifact of a test-scale ALU run in flows a and b.
func FuzzDecodeStage(f *testing.F) {
	st, err := artifact.Open(filepath.Join(f.TempDir(), "stages"))
	if err != nil {
		f.Fatal(err)
	}
	stages := NewStageCache(st)
	for _, flow := range []FlowKind{FlowA, FlowB} {
		cfg := Config{Arch: cells.GranularPLB(), Flow: flow, Seed: 3, PlaceEffort: 1, Stages: stages}
		d := bench.TestSuite().ALU
		if _, _, err := RunFlow(context.Background(), d, cfg); err != nil {
			f.Fatal(err)
		}
		chain, err := stageChain(d, cfg)
		if err != nil {
			f.Fatal(err)
		}
		for _, sk := range chain {
			raw, ok := st.Get(sk.Key)
			if !ok {
				f.Fatalf("flow %v stored no %s artifact", flow, sk.Stage)
			}
			for i := range stageLinks {
				if stageLinks[i].stage == sk.Stage {
					f.Add(uint8(i), raw)
				}
			}
		}
	}
	f.Add(uint8(0), []byte(`{"schema":1}`))
	f.Add(uint8(2), []byte(`{"schema":1,"objects":0,"positions":null}`))
	f.Fuzz(func(t *testing.T, link uint8, raw []byte) {
		l := stageLinks[int(link)%len(stageLinks)]
		art := l.decode(raw)
		if art == nil {
			return
		}
		enc := encodeStage(art)
		if enc == nil {
			t.Fatalf("accepted %s artifact does not encode", l.stage)
		}
		again := l.decode(enc)
		if again == nil {
			t.Fatalf("re-encoded %s artifact does not decode", l.stage)
		}
		if enc2 := encodeStage(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("%s artifact re-encodes differently:\n%s\n%s", l.stage, enc, enc2)
		}
	})
}
