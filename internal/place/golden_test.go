package place

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vpga/internal/bench"
)

// goldenPath holds one digest per annealer golden case, taken from the
// annealer before its parallel evaluation path was deleted. The batch
// definition (annealBatch, the per-proposal streams and the conflict
// skip) fixes every outcome, so a change that keeps it leaves all of
// them unchanged.
var goldenPath = filepath.Join("testdata", "golden.json")

// goldenBlocked marks the lower half of the die's left quarter as
// defective.
func goldenBlocked(xn, yn float64) bool { return xn < 0.25 && yn < 0.5 }

// goldenDigest is one case's entry in the golden file: the final HPWL
// as IEEE-754 bits, the annealer's counters, and the SHA-256 of every
// coordinate's bits in Positions order.
type goldenDigest struct {
	HPWL      string `json:"hpwl"`
	Stats     Stats  `json:"stats"`
	Positions string `json:"positions"`
}

// goldenDigests anneals every golden case and returns its digests by
// case name: the package's src design and the test-scale ALU, seeds 1
// to 4, MovesPerObj 1, 4 and 8, on a clean and a blocked die. Each
// case builds its problem, anneals it, then runs Refine as the flow
// does after net weighting.
func goldenDigests(t *testing.T) map[string]goldenDigest {
	t.Helper()
	designs := []struct{ name, src string }{
		{"src", src},
		{"alu", bench.TestSuite().ALU.RTL},
	}
	dies := []struct {
		name    string
		blocked func(xn, yn float64) bool
	}{
		{"clean", nil},
		{"blocked", goldenBlocked},
	}
	out := map[string]goldenDigest{}
	for _, d := range designs {
		nl, arch := mappedNetlist(t, d.src)
		for seed := int64(1); seed <= 4; seed++ {
			for _, moves := range []int{1, 4, 8} {
				for _, die := range dies {
					name := fmt.Sprintf("%s/seed%d/moves%d/%s", d.name, seed, moves, die.name)
					p, err := Build(nl, ArchArea(arch), Options{Seed: seed, Blocked: die.blocked})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := p.Anneal(Options{Seed: seed, MovesPerObj: moves}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					p.Refine(0.10, 3, seed+3)
					var buf []byte
					for _, v := range p.Positions() {
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
					}
					sum := sha256.Sum256(buf)
					out[name] = goldenDigest{
						HPWL:      fmt.Sprintf("%016x", math.Float64bits(p.HPWL())),
						Stats:     p.Stats(),
						Positions: hex.EncodeToString(sum[:]),
					}
				}
			}
		}
	}
	return out
}

// TestAnnealGoldens anneals every golden case and asserts its HPWL
// bits, counters and position digest against the committed goldens.
func TestAnnealGoldens(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenDigests(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the test builds %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden digest", name)
			continue
		}
		if g != w {
			t.Errorf("%s: digest %+v, golden %+v", name, g, w)
		}
	}
}
