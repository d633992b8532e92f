// Package blif reads and writes the Berkeley Logic Interchange Format, the
// native format of the MCNC benchmark suite. Supported constructs:
// .model / .inputs / .outputs / .names (with SOP cover lines) / .end.
package blif

import (
	"fmt"
	"strings"

	"repro/internal/netlist"
)

// Write renders the network as BLIF. Every logic node becomes a .names
// block with an explicit cover. Port names are reserved first, and an
// internal net name (n<i>, const0/const1, <net>_inv) that a port already
// holds is renamed by the same uniquifier, so no internal net can capture
// a port.
func Write(n *netlist.Network) string {
	var sb strings.Builder
	name := n.Name
	if name == "" {
		name = "top"
	}
	fmt.Fprintf(&sb, ".model %s\n", name)

	used := map[string]bool{}
	uniquify := func(name string) string {
		if !used[name] {
			used[name] = true
			return name
		}
		for i := 2; ; i++ {
			cand := fmt.Sprintf("%s_%d", name, i)
			if !used[cand] {
				used[cand] = true
				return cand
			}
		}
	}
	// internal names a net. The internal names are distinct by
	// construction and the uniquifier's renames (<name>_<k>) never take
	// their forms, so only a clash with a reserved name needs a rename.
	internal := func(name string) string {
		if used[name] {
			return uniquify(name)
		}
		return name
	}
	sig := make([]string, len(n.Nodes))
	inNames := make([]string, len(n.Inputs))
	for i, idx := range n.Inputs {
		nm := n.Nodes[idx].Name
		if nm == "" {
			nm = fmt.Sprintf("pi%d", i)
		}
		inNames[i] = uniquify(nm)
		sig[idx] = inNames[i]
	}
	fmt.Fprintf(&sb, ".inputs %s\n", strings.Join(inNames, " "))
	outNames := make([]string, len(n.Outputs))
	for i, o := range n.Outputs {
		nm := o.Name
		if nm == "" {
			nm = fmt.Sprintf("po%d", i)
		}
		outNames[i] = uniquify(nm)
	}
	fmt.Fprintf(&sb, ".outputs %s\n", strings.Join(outNames, " "))

	live := n.LiveNodes()
	for i, nd := range n.Nodes {
		if !live[i] {
			continue
		}
		switch nd.Op {
		case netlist.Const0, netlist.Input:
			continue
		}
		sig[i] = internal(fmt.Sprintf("n%d", i))
	}
	const0, const1 := internal("const0"), internal("const1")

	// ref returns the name of a signal, materializing an inverter node name
	// when the edge is complemented.
	inverted := map[int]string{}
	var invBlocks strings.Builder
	ref := func(s netlist.Signal) string {
		if s.Node() == 0 {
			// Constant: emit a dedicated net below.
			if s.Neg() {
				return const1
			}
			return const0
		}
		base := sig[s.Node()]
		if !s.Neg() {
			return base
		}
		if nm, ok := inverted[s.Node()]; ok {
			return nm
		}
		nm := internal(base + "_inv")
		inverted[s.Node()] = nm
		fmt.Fprintf(&invBlocks, ".names %s %s\n0 1\n", base, nm)
		return nm
	}

	var body strings.Builder
	usesConst0, usesConst1 := false, false
	for i, nd := range n.Nodes {
		if !live[i] || sig[i] == "" || nd.Op == netlist.Input {
			continue
		}
		fan := make([]string, len(nd.Fanins))
		for k, f := range nd.Fanins {
			fan[k] = ref(f)
			if fan[k] == const0 {
				usesConst0 = true
			}
			if fan[k] == const1 {
				usesConst1 = true
			}
		}
		fmt.Fprintf(&body, ".names %s %s\n", strings.Join(fan, " "), sig[i])
		k := len(fan)
		switch nd.Op {
		case netlist.And:
			body.WriteString(strings.Repeat("1", k) + " 1\n")
		case netlist.Nand:
			for b := 0; b < k; b++ {
				body.WriteString(strings.Repeat("-", b) + "0" + strings.Repeat("-", k-b-1) + " 1\n")
			}
		case netlist.Or:
			for b := 0; b < k; b++ {
				body.WriteString(strings.Repeat("-", b) + "1" + strings.Repeat("-", k-b-1) + " 1\n")
			}
		case netlist.Nor:
			body.WriteString(strings.Repeat("0", k) + " 1\n")
		case netlist.Xor, netlist.Xnor:
			// Enumerate parities (fanin counts are small).
			for m := 0; m < 1<<uint(k); m++ {
				ones := 0
				row := make([]byte, k)
				for b := 0; b < k; b++ {
					if m&(1<<uint(b)) != 0 {
						row[b] = '1'
						ones++
					} else {
						row[b] = '0'
					}
				}
				odd := ones%2 == 1
				if (nd.Op == netlist.Xor && odd) || (nd.Op == netlist.Xnor && !odd) {
					body.WriteString(string(row) + " 1\n")
				}
			}
		case netlist.Not:
			body.WriteString("0 1\n")
		case netlist.Buf:
			body.WriteString("1 1\n")
		case netlist.Maj:
			body.WriteString("11- 1\n1-1 1\n-11 1\n")
		case netlist.Mux:
			body.WriteString("11- 1\n0-1 1\n")
		}
	}
	// Output drivers.
	for i, o := range n.Outputs {
		src := ref(o.Sig)
		if src == const0 {
			usesConst0 = true
		}
		if src == const1 {
			usesConst1 = true
		}
		if src != outNames[i] {
			fmt.Fprintf(&body, ".names %s %s\n1 1\n", src, outNames[i])
		}
	}
	if usesConst0 {
		fmt.Fprintf(&sb, ".names %s\n", const0)
	}
	if usesConst1 {
		fmt.Fprintf(&sb, ".names %s\n1\n", const1)
	}
	sb.WriteString(invBlocks.String())
	sb.WriteString(body.String())
	sb.WriteString(".end\n")
	return sb.String()
}

// Parse reads a BLIF model into a netlist. Covers are interpreted as SOP
// over the listed fanins; the single-output-cover convention is supported
// (output value 1 rows; value-0 covers are complemented). Parsing is the
// streaming reader over the in-memory source; hand a file directly to
// ParseReader to avoid buffering it at all.
func Parse(src string) (*netlist.Network, error) {
	return ParseReader(strings.NewReader(src))
}

func buildCover(net *netlist.Network, env map[string]netlist.Signal, signals, rows []string, outVal byte) (netlist.Signal, error) {
	deps := signals[:len(signals)-1]
	if len(deps) == 0 {
		// Constant: ".names x" with a "1" row is const1, empty cover const0.
		if len(rows) > 0 && outVal == '1' {
			return netlist.SigConst1, nil
		}
		return netlist.SigConst0, nil
	}
	var cubes []netlist.Signal
	for _, row := range rows {
		if len(row) != len(deps) {
			return nil2(), fmt.Errorf("blif: row %q width %d, want %d", row, len(row), len(deps))
		}
		var lits []netlist.Signal
		for i, c := range row {
			s := env[deps[i]]
			switch c {
			case '1':
				lits = append(lits, s)
			case '0':
				lits = append(lits, s.Not())
			case '-':
			default:
				return nil2(), fmt.Errorf("blif: bad cover character %q", c)
			}
		}
		var cube netlist.Signal
		switch len(lits) {
		case 0:
			cube = netlist.SigConst1
		case 1:
			cube = lits[0]
		default:
			cube = net.AddGate(netlist.And, lits...)
		}
		cubes = append(cubes, cube)
	}
	var f netlist.Signal
	switch len(cubes) {
	case 0:
		f = netlist.SigConst0
	case 1:
		f = cubes[0]
	default:
		f = net.AddGate(netlist.Or, cubes...)
	}
	if outVal == '0' {
		f = f.Not()
	}
	return f, nil
}

func nil2() netlist.Signal { return netlist.SigConst0 }
