// Package aig implements an And-Inverter Graph with structural hashing and
// a resyn2-style optimization script (balance, rewrite, refactor). It is the
// repository's stand-in for the ABC tool used as the baseline in the paper's
// experiments: the same algorithmic family (DAG-aware AIG rewriting over
// 4-input cuts, algebraic tree balancing, and cone refactoring).
package aig

import (
	"fmt"

	"repro/internal/cut"
	"repro/internal/hashed"
	"repro/internal/netlist"
)

// Signal references a node output, possibly complemented:
// node-index<<1 | complement.
type Signal uint32

// MakeSignal builds a signal from a node index and complement flag.
func MakeSignal(node int, neg bool) Signal {
	s := Signal(node << 1)
	if neg {
		s |= 1
	}
	return s
}

// Node returns the node index.
func (s Signal) Node() int { return int(s >> 1) }

// Neg reports whether the signal is complemented.
func (s Signal) Neg() bool { return s&1 != 0 }

// Not returns the complemented signal.
func (s Signal) Not() Signal { return s ^ 1 }

// NotIf complements the signal when c is true.
func (s Signal) NotIf(c bool) Signal {
	if c {
		return s ^ 1
	}
	return s
}

// Constant signals. Node 0 is the constant 0.
const (
	Const0 Signal = 0
	Const1 Signal = 1
)

type nodeKind uint8

const (
	kindConst nodeKind = iota
	kindPI
	kindAnd
)

type node struct {
	fanin [2]Signal
	level int32
	kind  nodeKind
}

// Output is a named primary output.
type Output struct {
	Name string
	Sig  Signal
}

// AIG is an and-inverter graph.
type AIG struct {
	Name    string
	nodes   []node
	inputs  []int
	names   []string
	Outputs []Output
	// strash is the structural-hashing index (canonical fanin pair ->
	// node index) as an open-addressing table; see internal/hashed.
	strash hashed.Table2
	// cutCache lazily holds the k-feasible cuts of this graph (extended
	// incrementally, truncated on rollback; see cuts.go).
	cutCache *cut.Cache
	// fscr memoizes cone truth-table walks.
	fscr cut.FuncScratch
	// memo maps small cut functions to their factored forms (opt.go).
	// A topological rebuild hands it to the graph it builds, so one
	// pipeline factors each function once; graphs sharing it must not be
	// optimized concurrently, like the cut cache.
	memo factorMemo
	// synth is SynthesizeTT's reusable operand stack and sorter.
	synth synthScratch
}

// New returns an empty AIG containing only the constant node.
func New(name string) *AIG {
	return &AIG{
		Name:  name,
		nodes: []node{{kind: kindConst}},
	}
}

// AddInput appends a primary input and returns its signal.
func (a *AIG) AddInput(name string) Signal {
	idx := len(a.nodes)
	a.nodes = append(a.nodes, node{kind: kindPI})
	a.inputs = append(a.inputs, idx)
	a.names = append(a.names, name)
	return MakeSignal(idx, false)
}

// AddOutput registers a named primary output.
func (a *AIG) AddOutput(name string, s Signal) {
	a.Outputs = append(a.Outputs, Output{Name: name, Sig: s})
}

// NumInputs returns the number of primary inputs.
func (a *AIG) NumInputs() int { return len(a.inputs) }

// NumOutputs returns the number of primary outputs.
func (a *AIG) NumOutputs() int { return len(a.Outputs) }

// Input returns the signal of the i-th primary input.
func (a *AIG) Input(i int) Signal { return MakeSignal(a.inputs[i], false) }

// InputName returns the name of the i-th primary input.
func (a *AIG) InputName(i int) string { return a.names[i] }

// NumNodes returns the total node count.
func (a *AIG) NumNodes() int { return len(a.nodes) }

// IsAnd reports whether the node of s is an AND node.
func (a *AIG) IsAnd(s Signal) bool { return a.nodes[s.Node()].kind == kindAnd }

// IsPI reports whether the node of s is a primary input.
func (a *AIG) IsPI(s Signal) bool { return a.nodes[s.Node()].kind == kindPI }

// Fanins returns the fanins of an AND node.
func (a *AIG) Fanins(n int) [2]Signal { return a.nodes[n].fanin }

// Level returns the logic level of the node of s.
func (a *AIG) Level(s Signal) int { return int(a.nodes[s.Node()].level) }

// And creates (or reuses) an AND node with the trivial simplifications
// applied: AND(x, x) = x, AND(x, x') = 0, AND(x, 0) = 0, AND(x, 1) = x.
func (a *AIG) And(x, y Signal) Signal {
	if x == y {
		return x
	}
	if x == y.Not() {
		return Const0
	}
	if x == Const0 || y == Const0 {
		return Const0
	}
	if x == Const1 {
		return y
	}
	if y == Const1 {
		return x
	}
	if x > y {
		x, y = y, x
	}
	key := [2]uint32{uint32(x), uint32(y)}
	if idx, ok := a.strash.Get(key); ok {
		return MakeSignal(int(idx), false)
	}
	lv := a.nodes[x.Node()].level
	if l := a.nodes[y.Node()].level; l > lv {
		lv = l
	}
	idx := len(a.nodes)
	a.nodes = append(a.nodes, node{fanin: [2]Signal{x, y}, level: lv + 1, kind: kindAnd})
	a.strash.Put(key, int32(idx))
	return MakeSignal(idx, false)
}

// Or returns x OR y.
func (a *AIG) Or(x, y Signal) Signal { return a.And(x.Not(), y.Not()).Not() }

// Xor returns x XOR y (three AND nodes): (x·y)'·(x'·y')'.
func (a *AIG) Xor(x, y Signal) Signal {
	return a.And(a.And(x, y).Not(), a.And(x.Not(), y.Not()).Not())
}

// Mux returns ITE(sel, hi, lo).
func (a *AIG) Mux(sel, hi, lo Signal) Signal {
	return a.And(a.And(sel, hi).Not(), a.And(sel.Not(), lo).Not()).Not()
}

// Maj returns the three-input majority (four AND nodes).
func (a *AIG) Maj(x, y, z Signal) Signal {
	return a.Or(a.And(x, y), a.And(z, a.Or(x, y)))
}

// LiveMask marks nodes in the transitive fanin of the outputs.
func (a *AIG) LiveMask() []bool {
	live := make([]bool, len(a.nodes))
	var stack []int
	for _, o := range a.Outputs {
		stack = append(stack, o.Sig.Node())
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[v] {
			continue
		}
		live[v] = true
		if a.nodes[v].kind == kindAnd {
			stack = append(stack, a.nodes[v].fanin[0].Node(), a.nodes[v].fanin[1].Node())
		}
	}
	return live
}

// Size returns the number of live AND nodes.
func (a *AIG) Size() int {
	live := a.LiveMask()
	c := 0
	for i, nd := range a.nodes {
		if live[i] && nd.kind == kindAnd {
			c++
		}
	}
	return c
}

// Depth returns the number of AND levels on the longest path.
func (a *AIG) Depth() int {
	d := 0
	for _, o := range a.Outputs {
		if l := a.Level(o.Sig); l > d {
			d = l
		}
	}
	return d
}

// EvalWord simulates the AIG on one 64-bit word per input.
func (a *AIG) EvalWord(inputs []uint64) []uint64 {
	if len(inputs) != len(a.inputs) {
		panic(fmt.Sprintf("aig: EvalWord got %d inputs, want %d", len(inputs), len(a.inputs)))
	}
	vals := make([]uint64, len(a.nodes))
	get := func(s Signal) uint64 {
		v := vals[s.Node()]
		if s.Neg() {
			return ^v
		}
		return v
	}
	inIdx := 0
	for i := range a.nodes {
		switch a.nodes[i].kind {
		case kindConst:
			vals[i] = 0
		case kindPI:
			vals[i] = inputs[inIdx]
			inIdx++
		case kindAnd:
			vals[i] = get(a.nodes[i].fanin[0]) & get(a.nodes[i].fanin[1])
		}
	}
	return vals
}

// OutputWords simulates and returns one word per output.
func (a *AIG) OutputWords(inputs []uint64) []uint64 {
	vals := a.EvalWord(inputs)
	out := make([]uint64, len(a.Outputs))
	for i, o := range a.Outputs {
		v := vals[o.Sig.Node()]
		if o.Sig.Neg() {
			v = ^v
		}
		out[i] = v
	}
	return out
}

// Probabilities returns per-node signal probabilities under an independence
// assumption (inputs at 0.5 when inputProbs is nil).
func (a *AIG) Probabilities(inputProbs []float64) []float64 {
	p := make([]float64, len(a.nodes))
	get := func(s Signal) float64 {
		v := p[s.Node()]
		if s.Neg() {
			return 1 - v
		}
		return v
	}
	inIdx := 0
	for i := range a.nodes {
		switch a.nodes[i].kind {
		case kindConst:
			p[i] = 0
		case kindPI:
			if inputProbs != nil {
				p[i] = inputProbs[inIdx]
			} else {
				p[i] = 0.5
			}
			inIdx++
		case kindAnd:
			p[i] = get(a.nodes[i].fanin[0]) * get(a.nodes[i].fanin[1])
		}
	}
	return p
}

// Activity returns Σ 2·p·(1−p) over live AND nodes.
func (a *AIG) Activity(inputProbs []float64) float64 {
	p := a.Probabilities(inputProbs)
	live := a.LiveMask()
	total := 0.0
	for i := range a.nodes {
		if live[i] && a.nodes[i].kind == kindAnd {
			total += 2 * p[i] * (1 - p[i])
		}
	}
	return total
}

// Clone returns a deep copy of the AIG. The structural hash is cloned as
// a flat slice copy; scratch memory, the factored-form memo and the cut
// cache are not carried over (mirrors the MIG's Clone).
func (a *AIG) Clone() *AIG {
	return &AIG{
		Name:    a.Name,
		nodes:   append([]node(nil), a.nodes...),
		inputs:  append([]int(nil), a.inputs...),
		names:   append([]string(nil), a.names...),
		Outputs: append([]Output(nil), a.Outputs...),
		strash:  a.strash.Clone(),
	}
}

// derive returns the empty graph a topological rebuild of a fills in:
// same name, sharing a's factored-form memo.
func (a *AIG) derive() *AIG {
	out := New(a.Name)
	out.memo = a.memo
	return out
}

// Cleanup rebuilds the AIG dropping dead nodes.
func (a *AIG) Cleanup() *AIG {
	out := a.derive()
	remap := make([]Signal, len(a.nodes))
	for idx, in := range a.inputs {
		remap[in] = out.AddInput(a.names[idx])
	}
	live := a.LiveMask()
	for i, nd := range a.nodes {
		if !live[i] || nd.kind != kindAnd {
			continue
		}
		x := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		y := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		remap[i] = out.And(x, y)
	}
	for _, o := range a.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out
}

// FanoutCounts returns the number of live references per node.
func (a *AIG) FanoutCounts() []int {
	live := a.LiveMask()
	refs := make([]int, len(a.nodes))
	for i, nd := range a.nodes {
		if !live[i] || nd.kind != kindAnd {
			continue
		}
		refs[nd.fanin[0].Node()]++
		refs[nd.fanin[1].Node()]++
	}
	for _, o := range a.Outputs {
		refs[o.Sig.Node()]++
	}
	return refs
}

// Stats returns a one-line summary.
func (a *AIG) Stats() string {
	return fmt.Sprintf("%s: i/o=%d/%d size=%d depth=%d", a.Name, len(a.inputs), len(a.Outputs), a.Size(), a.Depth())
}

// FromNetwork converts a generic netlist into an AIG.
func FromNetwork(n *netlist.Network) *AIG {
	a := New(n.Name)
	remap := make([]Signal, len(n.Nodes))
	ms := func(s netlist.Signal) Signal { return remap[s.Node()].NotIf(s.Neg()) }
	reduce := func(sigs []Signal, op func(x, y Signal) Signal) Signal {
		for len(sigs) > 1 {
			var next []Signal
			for i := 0; i+1 < len(sigs); i += 2 {
				next = append(next, op(sigs[i], sigs[i+1]))
			}
			if len(sigs)%2 == 1 {
				next = append(next, sigs[len(sigs)-1])
			}
			sigs = next
		}
		return sigs[0]
	}
	inIdx := 0
	for i, nd := range n.Nodes {
		switch nd.Op {
		case netlist.Const0:
			remap[i] = Const0
		case netlist.Input:
			name := nd.Name
			if name == "" {
				name = fmt.Sprintf("x%d", inIdx)
			}
			remap[i] = a.AddInput(name)
			inIdx++
		case netlist.Not:
			remap[i] = ms(nd.Fanins[0]).Not()
		case netlist.Buf:
			remap[i] = ms(nd.Fanins[0])
		case netlist.And, netlist.Nand:
			v := reduce(mapSigs(nd.Fanins, ms), a.And)
			remap[i] = v.NotIf(nd.Op == netlist.Nand)
		case netlist.Or, netlist.Nor:
			v := reduce(mapSigs(nd.Fanins, ms), a.Or)
			remap[i] = v.NotIf(nd.Op == netlist.Nor)
		case netlist.Xor, netlist.Xnor:
			v := reduce(mapSigs(nd.Fanins, ms), a.Xor)
			remap[i] = v.NotIf(nd.Op == netlist.Xnor)
		case netlist.Maj:
			remap[i] = a.Maj(ms(nd.Fanins[0]), ms(nd.Fanins[1]), ms(nd.Fanins[2]))
		case netlist.Mux:
			remap[i] = a.Mux(ms(nd.Fanins[0]), ms(nd.Fanins[1]), ms(nd.Fanins[2]))
		default:
			panic(fmt.Sprintf("aig: FromNetwork unsupported op %v", nd.Op))
		}
	}
	for _, o := range n.Outputs {
		a.AddOutput(o.Name, ms(o.Sig))
	}
	return a
}

func mapSigs(fs []netlist.Signal, ms func(netlist.Signal) Signal) []Signal {
	out := make([]Signal, len(fs))
	for i, f := range fs {
		out[i] = ms(f)
	}
	return out
}

// ToNetwork converts the AIG into the generic netlist IR.
func (a *AIG) ToNetwork() *netlist.Network {
	n := netlist.New(a.Name)
	remap := make([]netlist.Signal, len(a.nodes))
	for idx, in := range a.inputs {
		remap[in] = n.AddInput(a.names[idx])
	}
	live := a.LiveMask()
	for i, nd := range a.nodes {
		if !live[i] || nd.kind != kindAnd {
			continue
		}
		x := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		y := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		remap[i] = n.AddGate(netlist.And, x, y)
	}
	for _, o := range a.Outputs {
		n.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return n
}
