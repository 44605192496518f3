package rtl

import (
	"fmt"

	"vpga/internal/logic"
	"vpga/internal/netlist"
)

// signal is a bus value, least-significant bit first.
type signal []netlist.NodeID

// Compile parses and elaborates RTL source into a gate-level netlist of
// simple primitives (INV, AND2, OR2, XOR2, MUX2, DFF).
func Compile(src string) (*netlist.Netlist, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Elaborate(m)
}

type elaborator struct {
	m  *Module
	nl *netlist.Netlist

	widths  map[string]int
	signals map[string]signal
	isReg   map[string]bool
	isOut   map[string]bool
	driven  map[string]bool

	haveConst      [2]bool
	constID        [2]netlist.NodeID
	pendingWires   map[string]bool // declared, not yet driven
	pendingAlways  map[string]bool
	pendingOutputs map[string]bool
}

// Elaborate lowers a parsed module to a netlist.
func Elaborate(m *Module) (*netlist.Netlist, error) {
	e := &elaborator{
		m:  m,
		nl: netlist.New(m.Name),

		widths:         map[string]int{},
		signals:        map[string]signal{},
		isReg:          map[string]bool{},
		isOut:          map[string]bool{},
		driven:         map[string]bool{},
		pendingWires:   map[string]bool{},
		pendingAlways:  map[string]bool{},
		pendingOutputs: map[string]bool{},
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	if err := e.checkBudget(0); err != nil {
		return nil, err
	}
	if err := e.nl.Validate(); err != nil {
		return nil, fmt.Errorf("rtl: elaborated netlist invalid: %w", err)
	}
	return e.nl, nil
}

// maxWidth is the widest signal the front end builds: a declared
// width, a concatenation or a replication. Every other expression is
// no wider than its operands, its 64-bit literal or the declared width
// it is assigned to, so none exceeds it.
const maxWidth = 256

// maxNodes bounds the netlist one source may elaborate to: 35× the
// largest benchmark design (NetworkSwitch at paper scale, 29,383
// nodes). An operator on two 256-bit signals builds up to ~1,300 nodes
// from a few bytes of source, so without a budget a short body could
// demand billions. Every declaration and expression checks it first,
// so no elaboration passes it by more than one operator or register.
const maxNodes = 1 << 20

func (e *elaborator) checkBudget(line int) error {
	if e.nl.NumNodes() > maxNodes {
		return e.errf(line, "design elaborates to more than %d nodes", maxNodes)
	}
	return nil
}

func (e *elaborator) errf(line int, format string, args ...interface{}) error {
	return fmt.Errorf("rtl: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (e *elaborator) declare(name string, width, line int) error {
	if err := e.checkBudget(line); err != nil {
		return err
	}
	if _, dup := e.widths[name]; dup {
		return e.errf(line, "duplicate declaration of %q", name)
	}
	if width <= 0 || width > maxWidth {
		return e.errf(line, "width %d of %q out of range", width, name)
	}
	e.widths[name] = width
	return nil
}

func bitName(name string, width, i int) string {
	if width == 1 {
		return name
	}
	return fmt.Sprintf("%s[%d]", name, i)
}

func (e *elaborator) run() error {
	// Ports first.
	for _, p := range e.m.Ports {
		if err := e.declare(p.Name, p.Width, p.Line); err != nil {
			return err
		}
		if p.Output {
			e.isOut[p.Name] = true
			e.pendingOutputs[p.Name] = true
			continue
		}
		bits := make(signal, p.Width)
		for i := range bits {
			bits[i] = e.nl.AddInput(bitName(p.Name, p.Width, i))
		}
		e.signals[p.Name] = bits
	}
	// Declarations, in order; expressions must only reference signals
	// already given a value (wires with inits, inputs) or registers.
	for _, item := range e.m.Items {
		switch it := item.(type) {
		case RegDecl:
			if err := e.declare(it.Name, it.Width, it.Line); err != nil {
				return err
			}
			e.isReg[it.Name] = true
			e.pendingAlways[it.Name] = true
			bits := make(signal, it.Width)
			for i := range bits {
				// D fanin patched by the always item; self-loop keeps
				// the node valid meanwhile.
				d := e.nl.AddDFF(bitName(it.Name, it.Width, i), 0)
				e.nl.SetFanin(d, 0, d)
				bits[i] = d
			}
			e.signals[it.Name] = bits
		case WireDecl:
			if err := e.declare(it.Name, it.Width, it.Line); err != nil {
				return err
			}
			if it.Init == nil {
				e.pendingWires[it.Name] = true
				continue
			}
			bits, err := e.evalWidth(it.Init, it.Width)
			if err != nil {
				return err
			}
			e.signals[it.Name] = bits
		case Assign:
			if err := e.elabAssign(it); err != nil {
				return err
			}
		case AlwaysFF:
			if err := e.elabAlways(it); err != nil {
				return err
			}
		}
	}
	for name := range e.pendingOutputs {
		return e.errf(0, "output %q is never assigned", name)
	}
	for name := range e.pendingWires {
		return e.errf(0, "wire %q is never assigned", name)
	}
	for name := range e.pendingAlways {
		return e.errf(0, "reg %q has no always assignment", name)
	}
	return nil
}

func (e *elaborator) elabAssign(it Assign) error {
	width, ok := e.widths[it.Name]
	if !ok {
		return e.errf(it.Line, "assign to undeclared %q", it.Name)
	}
	if e.isReg[it.Name] {
		return e.errf(it.Line, "assign to reg %q (use always)", it.Name)
	}
	if e.driven[it.Name] {
		return e.errf(it.Line, "multiple drivers for %q", it.Name)
	}
	bits, err := e.evalWidth(it.Expr, width)
	if err != nil {
		return err
	}
	e.driven[it.Name] = true
	if e.isOut[it.Name] {
		for i, b := range bits {
			e.nl.AddOutput(bitName(it.Name, width, i), b)
		}
		delete(e.pendingOutputs, it.Name)
		// Outputs may also be read internally.
		e.signals[it.Name] = bits
		return nil
	}
	if !e.pendingWires[it.Name] {
		return e.errf(it.Line, "%q already has an inline initializer", it.Name)
	}
	delete(e.pendingWires, it.Name)
	e.signals[it.Name] = bits
	return nil
}

func (e *elaborator) elabAlways(it AlwaysFF) error {
	if !e.isReg[it.Name] {
		return e.errf(it.Line, "always target %q is not a reg", it.Name)
	}
	if !e.pendingAlways[it.Name] {
		return e.errf(it.Line, "reg %q assigned by more than one always", it.Name)
	}
	width := e.widths[it.Name]
	bits, err := e.evalWidth(it.Expr, width)
	if err != nil {
		return err
	}
	regs := e.signals[it.Name]
	for i, d := range bits {
		e.nl.SetFanin(regs[i], 0, d)
	}
	delete(e.pendingAlways, it.Name)
	return nil
}

// ---- expression lowering ----

func (e *elaborator) constBit(v bool) netlist.NodeID {
	idx := 0
	if v {
		idx = 1
	}
	if !e.haveConst[idx] {
		e.constID[idx] = e.nl.AddConst(v)
		e.haveConst[idx] = true
	}
	return e.constID[idx]
}

// evalWidth evaluates expr and adapts it to exactly `width` bits:
// narrower results are zero-extended and wider ones truncated,
// Verilog-style (dropping an adder's natural carry-out, for example).
func (e *elaborator) evalWidth(expr Expr, width int) (signal, error) {
	bits, err := e.eval(expr, width)
	if err != nil {
		return nil, err
	}
	return e.fit(bits, width), nil
}

func (e *elaborator) fit(bits signal, width int) signal {
	for len(bits) < width {
		bits = append(bits, e.constBit(false))
	}
	return bits[:width]
}

// eval lowers expr; ctxWidth is a hint for unsized literals only.
func (e *elaborator) eval(expr Expr, ctxWidth int) (signal, error) {
	if err := e.checkBudget(expr.exprLine()); err != nil {
		return nil, err
	}
	switch x := expr.(type) {
	case Literal:
		w := x.Width
		if w == 0 {
			w = ctxWidth
			if w == 0 {
				w = 64
			}
		}
		if x.Width == 0 && w < 64 && x.Value >= 1<<uint(w) {
			return nil, e.errf(x.Line, "literal %d does not fit context width %d", x.Value, w)
		}
		bits := make(signal, w)
		for i := range bits {
			bits[i] = e.constBit(x.Value>>uint(i)&1 == 1)
		}
		return bits, nil

	case Ref:
		sig, ok := e.signals[x.Name]
		if !ok {
			if _, declared := e.widths[x.Name]; declared {
				return nil, e.errf(x.Line, "%q used before it is assigned", x.Name)
			}
			return nil, e.errf(x.Line, "unknown signal %q", x.Name)
		}
		if !x.HasIndex {
			return append(signal(nil), sig...), nil
		}
		if x.Hi >= len(sig) || x.Lo < 0 {
			return nil, e.errf(x.Line, "index [%d:%d] out of range for %q (width %d)", x.Hi, x.Lo, x.Name, len(sig))
		}
		return append(signal(nil), sig[x.Lo:x.Hi+1]...), nil

	case Unary:
		in, err := e.eval(x.X, ctxWidth)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "~":
			out := make(signal, len(in))
			for i, b := range in {
				out[i] = e.mkNot(b)
			}
			return out, nil
		case "&", "|", "^":
			return signal{e.reduce(x.Op, in)}, nil
		}
		return nil, e.errf(x.Line, "unknown unary op %q", x.Op)

	case Binary:
		return e.evalBinary(x, ctxWidth)

	case Ternary:
		cond, err := e.eval(x.Cond, 1)
		if err != nil {
			return nil, err
		}
		if len(cond) != 1 {
			return nil, e.errf(x.Line, "ternary condition must be 1 bit, got %d", len(cond))
		}
		thenB, err := e.eval(x.Then, ctxWidth)
		if err != nil {
			return nil, err
		}
		elseB, err := e.eval(x.Else, ctxWidth)
		if err != nil {
			return nil, err
		}
		w := max(len(thenB), len(elseB))
		thenB, elseB = e.fit(thenB, w), e.fit(elseB, w)
		out := make(signal, w)
		for i := range out {
			out[i] = e.mkMux(cond[0], elseB[i], thenB[i])
		}
		return out, nil

	case Concat:
		var out signal
		// Parts are MSB-first; build LSB-first.
		for i := len(x.Parts) - 1; i >= 0; i-- {
			bits, err := e.eval(x.Parts[i], 0)
			if err != nil {
				return nil, err
			}
			out = append(out, bits...)
			if len(out) > maxWidth {
				return nil, e.errf(x.Line, "concatenation wider than %d bits", maxWidth)
			}
		}
		return out, nil

	case Repl:
		bits, err := e.eval(x.X, 0)
		if err != nil {
			return nil, err
		}
		if x.Count > maxWidth || x.Count*len(bits) > maxWidth {
			return nil, e.errf(x.Line, "replication of %d copies of %d bits is wider than %d bits", x.Count, len(bits), maxWidth)
		}
		var out signal
		for i := 0; i < x.Count; i++ {
			out = append(out, bits...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("rtl: unhandled expression %T", expr)
}

func (e *elaborator) evalBinary(x Binary, ctxWidth int) (signal, error) {
	a, err := e.eval(x.X, ctxWidth)
	if err != nil {
		return nil, err
	}
	// Shift amounts must be constant.
	if x.Op == "<<" || x.Op == ">>" {
		lit, ok := x.Y.(Literal)
		if !ok {
			return nil, e.errf(x.Line, "shift amount must be a constant literal")
		}
		n := int(lit.Value)
		out := make(signal, len(a))
		for i := range out {
			var src int
			if x.Op == "<<" {
				src = i - n
			} else {
				src = i + n
			}
			if src >= 0 && src < len(a) {
				out[i] = a[src]
			} else {
				out[i] = e.constBit(false)
			}
		}
		return out, nil
	}
	b, err := e.eval(x.Y, max(len(a), ctxWidth))
	if err != nil {
		return nil, err
	}
	w := max(len(a), len(b))
	a, b = e.fit(a, w), e.fit(b, w)
	switch x.Op {
	case "&", "|", "^":
		out := make(signal, w)
		for i := range out {
			out[i] = e.mkBin(x.Op, a[i], b[i])
		}
		return out, nil
	case "==", "!=":
		bitsEq := make(signal, w)
		for i := range bitsEq {
			bitsEq[i] = e.mkNot(e.mkBin("^", a[i], b[i]))
		}
		eq := e.reduce("&", bitsEq)
		if x.Op == "!=" {
			eq = e.mkNot(eq)
		}
		return signal{eq}, nil
	case "+":
		sum, _ := e.adder(a, b, e.constBit(false))
		return sum, nil
	case "-":
		nb := make(signal, w)
		for i := range nb {
			nb[i] = e.mkNot(b[i])
		}
		sum, _ := e.adder(a, nb, e.constBit(true))
		return sum, nil
	}
	return nil, e.errf(x.Line, "unknown binary op %q", x.Op)
}

// adder builds a ripple-carry adder and returns (sum, carryOut).
func (e *elaborator) adder(a, b signal, cin netlist.NodeID) (signal, netlist.NodeID) {
	sum := make(signal, len(a))
	c := cin
	for i := range a {
		axb := e.mkBin("^", a[i], b[i])
		sum[i] = e.mkBin("^", axb, c)
		// carry = a·b + c·(a⊕b)
		c = e.mkBin("|", e.mkBin("&", a[i], b[i]), e.mkBin("&", c, axb))
	}
	return sum, c
}

func (e *elaborator) reduce(op string, in signal) netlist.NodeID {
	if len(in) == 1 {
		return in[0]
	}
	mid := len(in) / 2
	return e.mkBin(op, e.reduce(op, in[:mid]), e.reduce(op, in[mid:]))
}

func (e *elaborator) mkNot(a netlist.NodeID) netlist.NodeID {
	return e.nl.AddGate("INV", logic.VarTT(1, 0).Not(), a)
}

func (e *elaborator) mkBin(op string, a, b netlist.NodeID) netlist.NodeID {
	switch op {
	case "&":
		return e.nl.AddGate("AND2", logic.TTAnd2, a, b)
	case "|":
		return e.nl.AddGate("OR2", logic.TTOr2, a, b)
	case "^":
		return e.nl.AddGate("XOR2", logic.TTXor2, a, b)
	}
	panic("rtl: bad binary op " + op)
}

// mkMux builds MUX(sel; d0, d1): d0 when sel=0.
func (e *elaborator) mkMux(sel, d0, d1 netlist.NodeID) netlist.NodeID {
	return e.nl.AddGate("MUX2", logic.TTMux3, d0, d1, sel)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
