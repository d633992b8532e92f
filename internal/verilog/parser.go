package verilog

import (
	"fmt"
	"strings"

	"repro/internal/netlist"
)

// Parse reads a structural Verilog module (the subset documented in the
// package comment) into a netlist.
func Parse(src string) (*netlist.Network, error) {
	p := &parser{toks: tokenize(src)}
	return p.parseModule()
}

type token struct {
	kind string // ident, punct, const
	text string
}

func tokenize(src string) []token {
	// Strip comments.
	var clean strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	s := clean.String()
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isIdentStart(c):
			j := i
			for j < len(s) && isIdentChar(s[j]) {
				j++
			}
			toks = append(toks, token{"ident", s[i:j]})
			i = j
		case c >= '0' && c <= '9':
			// Only 1'b0 / 1'b1 constants are supported.
			if strings.HasPrefix(s[i:], "1'b0") || strings.HasPrefix(s[i:], "1'b1") {
				toks = append(toks, token{"const", s[i : i+4]})
				i += 4
			} else {
				j := i
				for j < len(s) && s[j] >= '0' && s[j] <= '9' {
					j++
				}
				toks = append(toks, token{"ident", s[i:j]}) // e.g. bus widths, rejected later
				i = j
			}
		default:
			toks = append(toks, token{"punct", string(c)})
			i++
		}
	}
	return toks
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '\\' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return token{"eof", ""}
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("verilog: expected %q, got %q", text, t.text)
	}
	return nil
}

func (p *parser) parseModule() (*netlist.Network, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	nameTok := p.next()
	if nameTok.kind != "ident" {
		return nil, fmt.Errorf("verilog: bad module name %q", nameTok.text)
	}
	// Skip the port list.
	if err := p.expect("("); err != nil {
		return nil, err
	}
	depth := 1
	for depth > 0 {
		t := p.next()
		if t.kind == "eof" {
			return nil, fmt.Errorf("verilog: unterminated port list")
		}
		if t.text == "(" {
			depth++
		}
		if t.text == ")" {
			depth--
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}

	net := netlist.New(nameTok.text)
	type assign struct {
		lhs string
		rhs []token
		// Gate-instance form: op applied to args (first arg is the output).
		gateOp   netlist.Op
		gateArgs []string
		isGate   bool
	}
	var (
		inputs, outputs []string
		assigns         []assign
		// port and driven catch a name declared as a port twice and a net
		// driven twice (or an input driven at all): strict decoding turns
		// each into an error instead of a silent last-wins choice.
		port   = map[string]string{}
		driven = map[string]bool{}
	)
	drive := func(lhs string) error {
		if port[lhs] == "input" {
			return fmt.Errorf("verilog: assignment to input %q", lhs)
		}
		if driven[lhs] {
			return fmt.Errorf("verilog: net %q assigned twice", lhs)
		}
		driven[lhs] = true
		return nil
	}
	gateOps := map[string]netlist.Op{
		"and": netlist.And, "or": netlist.Or, "nand": netlist.Nand,
		"nor": netlist.Nor, "xor": netlist.Xor, "xnor": netlist.Xnor,
		"not": netlist.Not, "buf": netlist.Buf,
	}

	for {
		t := p.next()
		switch t.text {
		case "endmodule":
			goto build
		case "input", "output", "wire":
			for {
				id := p.next()
				if id.kind != "ident" {
					return nil, fmt.Errorf("verilog: bad %s declaration near %q", t.text, id.text)
				}
				if t.text != "wire" {
					if prev, dup := port[id.text]; dup {
						return nil, fmt.Errorf("verilog: port %q declared twice (%s, then %s)", id.text, prev, t.text)
					}
					port[id.text] = t.text
					if t.text == "input" && driven[id.text] {
						return nil, fmt.Errorf("verilog: assignment to input %q", id.text)
					}
				}
				switch t.text {
				case "input":
					inputs = append(inputs, id.text)
				case "output":
					outputs = append(outputs, id.text)
				}
				sep := p.next()
				if sep.text == ";" {
					break
				}
				if sep.text != "," {
					return nil, fmt.Errorf("verilog: expected , or ; in %s declaration, got %q", t.text, sep.text)
				}
			}
		case "assign":
			lhs := p.next()
			if lhs.kind != "ident" {
				return nil, fmt.Errorf("verilog: bad assign target %q", lhs.text)
			}
			if err := p.expect("="); err != nil {
				return nil, err
			}
			var rhs []token
			for {
				tk := p.next()
				if tk.kind == "eof" {
					return nil, fmt.Errorf("verilog: unterminated assign")
				}
				if tk.text == ";" {
					break
				}
				rhs = append(rhs, tk)
			}
			if err := drive(lhs.text); err != nil {
				return nil, err
			}
			assigns = append(assigns, assign{lhs: lhs.text, rhs: rhs})
		case "":
			return nil, fmt.Errorf("verilog: unexpected end of file")
		default:
			op, isGate := gateOps[t.text]
			if !isGate {
				return nil, fmt.Errorf("verilog: unsupported construct %q", t.text)
			}
			// Gate instance: `and [name] (out, in...);`
			nxt := p.next()
			if nxt.kind == "ident" {
				nxt = p.next() // skip instance name
			}
			if nxt.text != "(" {
				return nil, fmt.Errorf("verilog: expected ( in %s instance", t.text)
			}
			var args []string
			for {
				a := p.next()
				if a.kind != "ident" {
					return nil, fmt.Errorf("verilog: bad %s instance argument %q", t.text, a.text)
				}
				args = append(args, a.text)
				sep := p.next()
				if sep.text == ")" {
					break
				}
				if sep.text != "," {
					return nil, fmt.Errorf("verilog: expected , or ) in %s instance", t.text)
				}
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			min := 3
			if op == netlist.Not || op == netlist.Buf {
				min = 2
			}
			if len(args) < min {
				return nil, fmt.Errorf("verilog: %s instance needs %d+ ports, got %d", t.text, min, len(args))
			}
			if err := drive(args[0]); err != nil {
				return nil, err
			}
			assigns = append(assigns, assign{lhs: args[0], gateOp: op, gateArgs: args[1:], isGate: true})
		}
	}

build:
	env := map[string]netlist.Signal{}
	for _, in := range inputs {
		env[in] = net.AddInput(in)
	}
	// Assignments may be out of order; iterate until all are resolved.
	remaining := assigns
	for len(remaining) > 0 {
		progress := false
		var still []assign
		for _, a := range remaining {
			if a.isGate {
				args := make([]netlist.Signal, 0, len(a.gateArgs))
				ready := true
				for _, name := range a.gateArgs {
					s, ok := env[name]
					if !ok {
						ready = false
						break
					}
					args = append(args, s)
				}
				if !ready {
					still = append(still, a)
					continue
				}
				env[a.lhs] = net.AddGate(a.gateOp, args...)
				progress = true
				continue
			}
			sig, err := evalExpr(net, env, a.rhs)
			if err != nil {
				still = append(still, a)
				continue
			}
			env[a.lhs] = sig
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("verilog: unresolved signals (combinational loop or undeclared wire?) in %d assigns", len(still))
		}
		remaining = still
	}
	for _, out := range outputs {
		sig, ok := env[out]
		if !ok {
			return nil, fmt.Errorf("verilog: output %q never assigned", out)
		}
		net.AddOutput(out, sig)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// evalExpr parses an expression token list with precedence
// ?: < | < ^ < & < ~/atom.
func evalExpr(net *netlist.Network, env map[string]netlist.Signal, toks []token) (netlist.Signal, error) {
	e := &exprParser{net: net, env: env, toks: toks}
	s, err := e.ternary()
	if err != nil {
		return 0, err
	}
	if e.pos != len(e.toks) {
		return 0, fmt.Errorf("verilog: trailing tokens in expression")
	}
	return s, nil
}

type exprParser struct {
	net  *netlist.Network
	env  map[string]netlist.Signal
	toks []token
	pos  int
}

func (e *exprParser) peek() string {
	if e.pos < len(e.toks) {
		return e.toks[e.pos].text
	}
	return ""
}

func (e *exprParser) ternary() (netlist.Signal, error) {
	cond, err := e.or()
	if err != nil {
		return 0, err
	}
	if e.peek() != "?" {
		return cond, nil
	}
	e.pos++
	hi, err := e.ternary()
	if err != nil {
		return 0, err
	}
	if e.peek() != ":" {
		return 0, fmt.Errorf("verilog: expected : in ?:")
	}
	e.pos++
	lo, err := e.ternary()
	if err != nil {
		return 0, err
	}
	return e.net.AddGate(netlist.Mux, cond, hi, lo), nil
}

func (e *exprParser) or() (netlist.Signal, error) {
	l, err := e.xor()
	if err != nil {
		return 0, err
	}
	for e.peek() == "|" {
		e.pos++
		r, err := e.xor()
		if err != nil {
			return 0, err
		}
		l = e.net.AddGate(netlist.Or, l, r)
	}
	return l, nil
}

func (e *exprParser) xor() (netlist.Signal, error) {
	l, err := e.and()
	if err != nil {
		return 0, err
	}
	for e.peek() == "^" {
		e.pos++
		r, err := e.and()
		if err != nil {
			return 0, err
		}
		l = e.net.AddGate(netlist.Xor, l, r)
	}
	return l, nil
}

func (e *exprParser) and() (netlist.Signal, error) {
	l, err := e.unary()
	if err != nil {
		return 0, err
	}
	for e.peek() == "&" {
		e.pos++
		r, err := e.unary()
		if err != nil {
			return 0, err
		}
		l = e.net.AddGate(netlist.And, l, r)
	}
	return l, nil
}

func (e *exprParser) unary() (netlist.Signal, error) {
	switch e.peek() {
	case "~":
		e.pos++
		s, err := e.unary()
		if err != nil {
			return 0, err
		}
		return s.Not(), nil
	case "(":
		e.pos++
		s, err := e.ternary()
		if err != nil {
			return 0, err
		}
		if e.peek() != ")" {
			return 0, fmt.Errorf("verilog: missing )")
		}
		e.pos++
		return s, nil
	}
	if e.pos >= len(e.toks) {
		return 0, fmt.Errorf("verilog: unexpected end of expression")
	}
	t := e.toks[e.pos]
	e.pos++
	switch {
	case t.kind == "const":
		if t.text == "1'b1" {
			return netlist.SigConst1, nil
		}
		return netlist.SigConst0, nil
	case t.kind == "ident":
		s, ok := e.env[t.text]
		if !ok {
			return 0, fmt.Errorf("verilog: signal %q not yet defined", t.text)
		}
		return s, nil
	}
	return 0, fmt.Errorf("verilog: unexpected token %q", t.text)
}
