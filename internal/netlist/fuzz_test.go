package netlist_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/netlist"
	"vpga/internal/rtl"
)

// FuzzNetlistJSON: every input decodes to a netlist or an error, never
// a panic, and a decoded netlist's encoding decodes and re-encodes
// byte-identically. The corpus is seeded with the test designs'
// elaborated netlists.
func FuzzNetlistJSON(f *testing.F) {
	for _, d := range bench.TestSuite().All() {
		nl, err := rtl.Compile(d.RTL)
		if err != nil {
			f.Fatal(err)
		}
		enc, err := json.Marshal(nl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(`{"schema":1,"name":"x","nodes":[{"k":0,"n":"a"},{"k":1,"n":"y","f":[0]}],"pis":[0],"pos":[1]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var nl netlist.Netlist
		if err := json.Unmarshal(data, &nl); err != nil {
			return
		}
		enc, err := json.Marshal(&nl)
		if err != nil {
			t.Fatalf("decoded netlist does not encode: %v", err)
		}
		var back netlist.Netlist
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("encoding does not decode: %v\n%s", err, enc)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("re-decoded netlist does not encode: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("re-encoding differs:\n%s\n%s", enc, again)
		}
	})
}
