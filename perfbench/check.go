package main

// An independent BLIF evaluator: the benchmark's own parser and bit-parallel
// simulator, sharing no code with the decoders and engines under test, so a
// bug there cannot hide itself by also breaking the check.

import (
	"bufio"
	"fmt"
	"strings"
)

// circuit is a combinational BLIF model in topological order.
type circuit struct {
	inputs  []string
	outputs []string
	// gates are in evaluation order; signal i < len(inputs) is input i,
	// signal len(inputs)+j is gates[j].
	gates  []gate
	signal map[string]int // output name → signal index
}

// gate is one .names cover.
type gate struct {
	name   string
	fanins []string
	in     []int    // resolved fanin signals
	cubes  []string // input part of each cover line
	onset  bool     // cover lists the on-set (output column 1)
}

// parseBLIF reads one .model. Sequential and hierarchical constructs are
// rejected: every workload emits flat combinational BLIF.
func parseBLIF(src string) (*circuit, error) {
	c := &circuit{}
	defs := map[string]*gate{}
	var order []*gate
	var cur *gate
	sc := bufio.NewScanner(strings.NewReader(src))
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	lineNo := 0
	var pending string
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.HasSuffix(line, "\\") {
			pending += line[:len(line)-1] + " "
			continue
		}
		line, pending = pending+line, ""
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if !strings.HasPrefix(f[0], ".") {
			if cur == nil {
				return nil, fmt.Errorf("line %d: cover line outside .names", lineNo)
			}
			if err := cur.addCube(f); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			continue
		}
		cur = nil
		switch f[0] {
		case ".model", ".end":
		case ".inputs":
			c.inputs = append(c.inputs, f[1:]...)
		case ".outputs":
			c.outputs = append(c.outputs, f[1:]...)
		case ".names":
			if len(f) < 2 {
				return nil, fmt.Errorf("line %d: .names without an output", lineNo)
			}
			g := &gate{name: f[len(f)-1], fanins: f[1 : len(f)-1], onset: true}
			if defs[g.name] != nil {
				return nil, fmt.Errorf("line %d: %q defined twice", lineNo, g.name)
			}
			defs[g.name] = g
			order = append(order, g)
			cur = g
		default:
			return nil, fmt.Errorf("line %d: unsupported construct %s", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, c.sort(defs, order)
}

func (g *gate) addCube(f []string) error {
	var in, out string
	switch {
	case len(g.fanins) == 0 && len(f) == 1:
		out = f[0]
	case len(f) == 2 && len(f[0]) == len(g.fanins):
		in, out = f[0], f[1]
	default:
		return fmt.Errorf("malformed cover line for %q", g.name)
	}
	if strings.Trim(in, "01-") != "" || (out != "0" && out != "1") {
		return fmt.Errorf("malformed cover line for %q", g.name)
	}
	onset := out == "1"
	if len(g.cubes) > 0 && onset != g.onset {
		return fmt.Errorf("mixed on-set and off-set cover for %q", g.name)
	}
	g.onset = onset
	g.cubes = append(g.cubes, in)
	return nil
}

// sort resolves fanins and orders gates so every gate follows its fanins.
func (c *circuit) sort(defs map[string]*gate, order []*gate) error {
	c.signal = make(map[string]int, len(c.inputs)+len(order))
	for i, name := range c.inputs {
		if _, dup := c.signal[name]; dup {
			return fmt.Errorf("input %q listed twice", name)
		}
		if defs[name] != nil {
			return fmt.Errorf("input %q is also driven by a cover", name)
		}
		c.signal[name] = i
	}
	const (
		unvisited = iota
		active
		done
	)
	state := make(map[*gate]int, len(order))
	type frame struct {
		g    *gate
		next int
	}
	for _, root := range order {
		if state[root] != unvisited {
			continue
		}
		stack := []frame{{g: root}}
		state[root] = active
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next < len(top.g.fanins) {
				name := top.g.fanins[top.next]
				top.next++
				if _, ok := c.signal[name]; ok {
					continue
				}
				d := defs[name]
				switch {
				case d == nil:
					return fmt.Errorf("signal %q is never driven", name)
				case state[d] == active:
					return fmt.Errorf("combinational cycle through %q", name)
				case state[d] == unvisited:
					state[d] = active
					stack = append(stack, frame{g: d})
				}
				continue
			}
			g := top.g
			g.in = make([]int, len(g.fanins))
			for i, name := range g.fanins {
				g.in[i] = c.signal[name]
			}
			c.signal[g.name] = len(c.inputs) + len(c.gates)
			c.gates = append(c.gates, *g)
			state[g] = done
			stack = stack[:len(stack)-1]
		}
	}
	for _, name := range c.outputs {
		if _, ok := c.signal[name]; !ok {
			return fmt.Errorf("output %q is never driven", name)
		}
	}
	return nil
}

// simulate evaluates every signal on the given input words (one slice of
// equal length per input, in c.inputs order) and returns the output words
// in c.outputs order.
func (c *circuit) simulate(in [][]uint64) [][]uint64 {
	words := checkWords
	val := make([][]uint64, len(c.inputs)+len(c.gates))
	copy(val, in)
	term := make([]uint64, words)
	for j := range c.gates {
		g := &c.gates[j]
		acc := make([]uint64, words)
		for _, cube := range g.cubes {
			for w := range term {
				term[w] = ^uint64(0)
			}
			for k := 0; k < len(cube); k++ {
				v := val[g.in[k]]
				switch cube[k] {
				case '1':
					for w := range term {
						term[w] &= v[w]
					}
				case '0':
					for w := range term {
						term[w] &^= v[w]
					}
				}
			}
			for w := range acc {
				acc[w] |= term[w]
			}
		}
		if !g.onset {
			for w := range acc {
				acc[w] = ^acc[w]
			}
		}
		val[len(c.inputs)+j] = acc
	}
	out := make([][]uint64, len(c.outputs))
	for i, name := range c.outputs {
		out[i] = val[c.signal[name]]
	}
	return out
}

// checkWords is the number of 64-pattern words simulated per check.
const checkWords = 16

// equivalent simulates want and got on the same seeded random patterns,
// matching inputs and outputs by name, and reports the first mismatch.
func equivalent(want, got string, seed uint64) error {
	a, err := parseBLIF(want)
	if err != nil {
		return fmt.Errorf("parse reference: %v", err)
	}
	b, err := parseBLIF(got)
	if err != nil {
		return fmt.Errorf("parse output: %v", err)
	}
	if len(a.inputs) != len(b.inputs) || len(a.outputs) != len(b.outputs) {
		return fmt.Errorf("interface changed: %d/%d inputs, %d/%d outputs",
			len(a.inputs), len(b.inputs), len(a.outputs), len(b.outputs))
	}
	rng := splitmix(seed)
	inA := make([][]uint64, len(a.inputs))
	for i := range inA {
		inA[i] = make([]uint64, checkWords)
		for w := range inA[i] {
			inA[i][w] = rng.next()
		}
	}
	inB := make([][]uint64, len(b.inputs))
	for i, name := range b.inputs {
		j, ok := a.signal[name]
		if !ok || j >= len(a.inputs) {
			return fmt.Errorf("output circuit has unknown input %q", name)
		}
		inB[i] = inA[j]
	}
	outA, outB := a.simulate(inA), b.simulate(inB)
	outIndex := make(map[string]int, len(b.outputs))
	for k, name := range b.outputs {
		outIndex[name] = k
	}
	for i, name := range a.outputs {
		j, ok := outIndex[name]
		if !ok {
			return fmt.Errorf("output %q missing", name)
		}
		for w := range outA[i] {
			if outA[i][w] != outB[j][w] {
				return fmt.Errorf("output %q differs on pattern word %d", name, w)
			}
		}
	}
	return nil
}

// splitmix is the splitmix64 generator: small, seedable and identical on
// every platform.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
