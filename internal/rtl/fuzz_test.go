package rtl

import (
	"math/rand"
	"strings"
	"testing"
)

// compileSeeds are small well-formed sources that the mutation test
// and the fuzz target start from.
var compileSeeds = []string{
	"module m(input a, output y); assign y = a; endmodule",
	"module m(input [7:0] a, output [7:0] y); wire [7:0] w = a + 8'hFF; assign y = w ^ {8{a[0]}}; endmodule",
	"module m(input clk, input d, output q); reg r; always r <= d; assign q = r; endmodule",
}

// Two short sources that ask for far wider signals than any declared
// one: a million-fold replication (64 bytes) and a concatenation of
// 400 256-bit replications. Both must be elaboration errors.
var (
	wideReplication   = "module m(input a, output y); assign y = ^{1000000{a}}; endmodule"
	wideConcatenation = "module m(input a, output y); assign y = ^{" +
		strings.TrimSuffix(strings.Repeat("{256{a}},", 400), ",") + "}; endmodule"
)

// addChain adds b to a n times on 256-bit ports: each 4-byte " + b"
// elaborates to about 1,280 nodes. addChain(1000) (4 KB of source)
// passes the node budget and must be an elaboration error.
func addChain(n int) string {
	return "module m(input [255:0] a, input [255:0] b, output [255:0] y); assign y = a" +
		strings.Repeat(" + b", n) + "; endmodule"
}

// TestCompileNeverPanics feeds the front end mutated and random
// sources: every input must produce either a netlist or an error,
// never a panic.
func TestCompileNeverPanics(t *testing.T) {
	tokens := []string{"module", "endmodule", "input", "output", "wire", "reg",
		"assign", "always", "<=", "=", ";", ",", "(", ")", "[", "]", "{", "}",
		"?", ":", "+", "-", "&", "|", "^", "~", "<<", ">>", "==", "!=",
		"a", "y", "w", "8'hFF", "3'b101", "7", "0", "'", "\x00", "/*", "//"}
	rng := rand.New(rand.NewSource(99))
	run := func(src string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Compile panicked on %q: %v", src, r)
			}
		}()
		_, _ = Compile(src)
	}
	for _, seed := range compileSeeds {
		run(seed)
		// Deletion mutations.
		for trial := 0; trial < 200; trial++ {
			b := []byte(seed)
			n := 1 + rng.Intn(8)
			for i := 0; i < n && len(b) > 0; i++ {
				p := rng.Intn(len(b))
				b = append(b[:p], b[p+1:]...)
			}
			run(string(b))
		}
		// Substitution mutations.
		for trial := 0; trial < 200; trial++ {
			b := []byte(seed)
			for i := 0; i < 4; i++ {
				b[rng.Intn(len(b))] = byte(rng.Intn(128))
			}
			run(string(b))
		}
	}
	// Random token soup.
	for trial := 0; trial < 300; trial++ {
		var sb strings.Builder
		sb.WriteString("module m(")
		for i := 0; i < rng.Intn(40); i++ {
			sb.WriteString(tokens[rng.Intn(len(tokens))])
			sb.WriteByte(' ')
		}
		run(sb.String())
	}
}

func TestDeepExpressionNesting(t *testing.T) {
	// Deeply parenthesized expressions must not blow the stack at sane
	// depths.
	depth := 300
	expr := strings.Repeat("~(", depth) + "a" + strings.Repeat(")", depth)
	src := "module m(input a, output y); assign y = " + expr + "; endmodule"
	nl, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if nl.ComputeStats().Gates != depth {
		t.Fatalf("gates = %d, want %d", nl.ComputeStats().Gates, depth)
	}
}

// FuzzCompile: every source yields a netlist or an error, never a
// panic.
func FuzzCompile(f *testing.F) {
	for _, src := range append(compileSeeds, wideReplication, wideConcatenation, addChain(1000)) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		nl, err := Compile(src)
		if (nl == nil) == (err == nil) {
			t.Fatalf("Compile returned netlist %v and error %v", nl != nil, err)
		}
	})
}

// TestWidthBoundary: 256 bits is the widest legal signal, whether
// declared, concatenated or replicated; 257 errors cleanly. Width-legal
// operators are bounded by the node budget: 400 256-bit adds
// (512,769 nodes) elaborate, 1,000 pass the budget and error.
func TestWidthBoundary(t *testing.T) {
	for _, tc := range []struct {
		src string
		ok  bool
	}{
		{"module m(input [255:0] a, output [255:0] y); assign y = a; endmodule", true},
		{"module m(input [256:0] a, output y); assign y = a[0]; endmodule", false},
		{"module m(input a, output [255:0] y); assign y = {256{a}}; endmodule", true},
		{"module m(input a, output y); assign y = ^{257{a}}; endmodule", false},
		{"module m(input [1:0] a, output y); assign y = ^{129{a}}; endmodule", false},
		{"module m(input a, output y); assign y = ^{{128{a}}, {128{a}}}; endmodule", true},
		{"module m(input a, output y); assign y = ^{a, {256{a}}}; endmodule", false},
		{wideReplication, false},
		{wideConcatenation, false},
		{addChain(400), true},
		{addChain(1000), false},
	} {
		nl, err := Compile(tc.src)
		if tc.ok && err != nil {
			t.Errorf("%.70s: rejected: %v", tc.src, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%.70s: accepted, %d nodes", tc.src, len(nl.Nodes()))
		}
	}
}
