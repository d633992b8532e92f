// Package mig implements the Majority-Inverter Graph of Amarù, Gaillardon
// and De Micheli (DAC 2014): a homogeneous logic network whose nodes all
// compute the three-input majority function M(a, b, c) = ab + ac + bc and
// whose edges carry an optional complement attribute.
//
// The package provides
//
//   - the MIG data structure with inverter-aware structural hashing,
//   - the Ω axioms (commutativity, majority, associativity, distributivity,
//     inverter propagation) and the derived Ψ rules (relevance,
//     complementary associativity, substitution) as local DAG rewrites,
//   - the size, depth and switching-activity optimizers of the paper's
//     Section IV (Algorithms 1 and 2), and
//   - conversions to and from the generic netlist IR.
//
// Signals follow the usual literal encoding: node-index<<1 | complement.
// Node 0 is the constant 0, so Const0 = 0 and Const1 = 1.
package mig

import (
	"fmt"
	"sort"

	"repro/internal/cut"
	"repro/internal/hashed"
	"repro/internal/netlist"
)

// Signal references a node output, possibly complemented.
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

// Constant signals.
const (
	Const0 Signal = 0
	Const1 Signal = 1
)

// nodeKind distinguishes the three node flavours.
type nodeKind uint8

const (
	kindConst nodeKind = iota
	kindPI
	kindMaj
)

// node is a single MIG node. Fanins are only meaningful for majority nodes.
type node struct {
	fanin [3]Signal
	level int32
	kind  nodeKind
}

// Output is a named primary output.
type Output struct {
	Name string
	Sig  Signal
}

// MIG is a majority-inverter graph.
type MIG struct {
	Name    string
	nodes   []node
	inputs  []int // node indices of PIs in declaration order
	names   []string
	Outputs []Output
	// strash is the structural-hashing index: canonical fanin triple ->
	// node index. Open addressing (internal/hashed) keeps the rewrite
	// inner loop free of map allocations and makes Clone a flat copy.
	strash hashed.Table3
	// scr is reusable traversal scratch (epoch-stamped memos); see
	// scratch.go. Never shared across goroutines.
	scr scratch
	// cutCache lazily holds the k-feasible cuts of this graph; it is
	// extended incrementally as nodes are appended and truncated on
	// rollback (see cuts.go).
	cutCache *cut.Cache
	// fscr memoizes cone truth-table walks (cuts.go); wscr is its
	// word-level twin for cuts of at most six leaves (synth6.go).
	fscr cut.FuncScratch
	wscr wordScratch
	// synthMemo is the reusable per-call memo of synthW (synth6.go): the
	// sub-functions built so far, in build order.
	synthMemo []synthEntry
}

// New returns an empty MIG containing only the constant node.
func New(name string) *MIG {
	return &MIG{
		Name:  name,
		nodes: []node{{kind: kindConst}},
	}
}

// AddInput appends a primary input and returns its signal.
func (m *MIG) AddInput(name string) Signal {
	idx := len(m.nodes)
	m.nodes = append(m.nodes, node{kind: kindPI})
	m.inputs = append(m.inputs, idx)
	m.names = append(m.names, name)
	return MakeSignal(idx, false)
}

// AddOutput registers a named primary output.
func (m *MIG) AddOutput(name string, s Signal) {
	m.Outputs = append(m.Outputs, Output{Name: name, Sig: s})
}

// NumInputs returns the number of primary inputs.
func (m *MIG) NumInputs() int { return len(m.inputs) }

// NumOutputs returns the number of primary outputs.
func (m *MIG) NumOutputs() int { return len(m.Outputs) }

// Input returns the signal of the i-th primary input.
func (m *MIG) Input(i int) Signal { return MakeSignal(m.inputs[i], false) }

// InputName returns the name of the i-th primary input.
func (m *MIG) InputName(i int) string { return m.names[i] }

// NumNodes returns the total number of nodes, including the constant and the
// primary inputs.
func (m *MIG) NumNodes() int { return len(m.nodes) }

// IsMaj reports whether the node of s is a majority node.
func (m *MIG) IsMaj(s Signal) bool { return m.nodes[s.Node()].kind == kindMaj }

// IsPI reports whether the node of s is a primary input.
func (m *MIG) IsPI(s Signal) bool { return m.nodes[s.Node()].kind == kindPI }

// IsConst reports whether the node of s is the constant node.
func (m *MIG) IsConst(s Signal) bool { return s.Node() == 0 }

// Fanins returns the three fanin signals of a majority node.
func (m *MIG) Fanins(n int) [3]Signal { return m.nodes[n].fanin }

// Level returns the logic level of the node of s (inverters are free).
func (m *MIG) Level(s Signal) int { return int(m.nodes[s.Node()].level) }

// Maj creates (or reuses) a majority node M(a, b, c). The node is
// canonicalized before hashing:
//
//   - the trivial majority rules Ω.M are applied: M(x, x, z) = x and
//     M(x, x', z) = z (this also covers constant pairs, since Const1 is the
//     complement of Const0);
//   - fanins are sorted (Ω.C makes order irrelevant);
//   - if two or more fanins are complemented, inverter propagation Ω.I
//     rewrites the node so at most one fanin is complemented, complementing
//     the output instead.
func (m *MIG) Maj(a, b, c Signal) Signal {
	a, b, c, outNeg, folded := canonMaj(a, b, c)
	if folded {
		return a
	}
	key := [3]uint32{uint32(a), uint32(b), uint32(c)}
	if idx, ok := m.strash.Get(key); ok {
		return MakeSignal(int(idx), outNeg)
	}
	lv := m.nodes[a.Node()].level
	if l := m.nodes[b.Node()].level; l > lv {
		lv = l
	}
	if l := m.nodes[c.Node()].level; l > lv {
		lv = l
	}
	idx := len(m.nodes)
	m.nodes = append(m.nodes, node{fanin: [3]Signal{a, b, c}, level: lv + 1, kind: kindMaj})
	m.strash.Put(key, int32(idx))
	return MakeSignal(idx, outNeg)
}

// canonMaj applies Maj's canonicalization to M(a, b, c). When Ω.M folds the
// node, folded is set and a is the result. Otherwise a < b < c are the
// fanins of the canonical node and outNeg complements its output.
func canonMaj(a, b, c Signal) (Signal, Signal, Signal, bool, bool) {
	// Ω.M: pairs of equal or complementary fanins.
	switch {
	case a == b:
		return a, 0, 0, false, true
	case a == b.Not():
		return c, 0, 0, false, true
	case a == c:
		return a, 0, 0, false, true
	case a == c.Not():
		return b, 0, 0, false, true
	case b == c:
		return b, 0, 0, false, true
	case b == c.Not():
		return a, 0, 0, false, true
	}

	// Ω.I normalization: keep at most one complemented fanin.
	outNeg := false
	if (a&1)+(b&1)+(c&1) >= 2 {
		a, b, c = a.Not(), b.Not(), c.Not()
		outNeg = true
	}

	// Ω.C: sort fanins.
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c, outNeg, false
}

// And returns a AND b, built as M(a, b, 0).
func (m *MIG) And(a, b Signal) Signal { return m.Maj(a, b, Const0) }

// Or returns a OR b, built as M(a, b, 1).
func (m *MIG) Or(a, b Signal) Signal { return m.Maj(a, b, Const1) }

// Xor returns a XOR b (three majority nodes).
func (m *MIG) Xor(a, b Signal) Signal {
	// a ⊕ b = (a + b)·(a·b)' = M(M(a,b,1), M(a,b,0)', 0)
	return m.And(m.Or(a, b), m.And(a, b).Not())
}

// Mux returns ITE(sel, hi, lo).
func (m *MIG) Mux(sel, hi, lo Signal) Signal {
	return m.Or(m.And(sel, hi), m.And(sel.Not(), lo))
}

// majView exposes the fanins of s as a majority expression, pushing an
// output complement onto the fanins via Ω.I. ok is false when s is not a
// majority node.
func (m *MIG) majView(s Signal) (a, b, c Signal, ok bool) {
	nd := &m.nodes[s.Node()]
	if nd.kind != kindMaj {
		return 0, 0, 0, false
	}
	a, b, c = nd.fanin[0], nd.fanin[1], nd.fanin[2]
	if s.Neg() {
		a, b, c = a.Not(), b.Not(), c.Not()
	}
	return a, b, c, true
}

// LiveMask marks nodes in the transitive fanin of the outputs.
func (m *MIG) LiveMask() []bool {
	return m.liveInto(make([]bool, len(m.nodes)))
}

// liveInto fills live (length len(nodes), all false) with the live mask and
// returns it; internal callers pass pooled slices.
func (m *MIG) liveInto(live []bool) []bool {
	sp := intSlab.Get().(*[]int)
	stack := (*sp)[:0]
	for _, o := range m.Outputs {
		stack = append(stack, o.Sig.Node())
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[v] {
			continue
		}
		live[v] = true
		if m.nodes[v].kind == kindMaj {
			for _, f := range m.nodes[v].fanin {
				stack = append(stack, f.Node())
			}
		}
	}
	*sp = stack
	intSlab.Put(sp)
	return live
}

// Size returns the number of live majority nodes (the paper's size metric).
func (m *MIG) Size() int {
	lp := takeBools(len(m.nodes))
	live := *lp
	m.liveInto(live)
	c := 0
	for i, nd := range m.nodes {
		if live[i] && nd.kind == kindMaj {
			c++
		}
	}
	releaseBools(lp)
	return c
}

// Depth returns the number of majority levels on the longest path from any
// input to any output (the paper's depth metric; inverters are free).
func (m *MIG) Depth() int {
	d := 0
	for _, o := range m.Outputs {
		if l := m.Level(o.Sig); l > d {
			d = l
		}
	}
	return d
}

// EvalWord simulates the MIG on one 64-bit word per input.
func (m *MIG) EvalWord(inputs []uint64) []uint64 {
	if len(inputs) != len(m.inputs) {
		panic(fmt.Sprintf("mig: EvalWord got %d inputs, want %d", len(inputs), len(m.inputs)))
	}
	vals := make([]uint64, len(m.nodes))
	get := func(s Signal) uint64 {
		v := vals[s.Node()]
		if s.Neg() {
			return ^v
		}
		return v
	}
	inIdx := 0
	for i := range m.nodes {
		switch m.nodes[i].kind {
		case kindConst:
			vals[i] = 0
		case kindPI:
			vals[i] = inputs[inIdx]
			inIdx++
		case kindMaj:
			a := get(m.nodes[i].fanin[0])
			b := get(m.nodes[i].fanin[1])
			c := get(m.nodes[i].fanin[2])
			vals[i] = (a & b) | (a & c) | (b & c)
		}
	}
	return vals
}

// OutputWords simulates and returns one word per output.
func (m *MIG) OutputWords(inputs []uint64) []uint64 {
	vals := m.EvalWord(inputs)
	out := make([]uint64, len(m.Outputs))
	for i, o := range m.Outputs {
		v := vals[o.Sig.Node()]
		if o.Sig.Neg() {
			v = ^v
		}
		out[i] = v
	}
	return out
}

// Clone returns a deep copy of the MIG. The structural hash is cloned as a
// flat slice copy; scratch memory and the cut cache are not carried over.
func (m *MIG) Clone() *MIG {
	return &MIG{
		Name:    m.Name,
		nodes:   append([]node(nil), m.nodes...),
		inputs:  append([]int(nil), m.inputs...),
		names:   append([]string(nil), m.names...),
		Outputs: append([]Output(nil), m.Outputs...),
		strash:  m.strash.Clone(),
	}
}

// Cleanup rebuilds the MIG dropping dead nodes. Returns the compacted MIG.
func (m *MIG) Cleanup() *MIG {
	return m.rebuildWith(func(out *MIG, _ int, a, b, c Signal) Signal { return out.Maj(a, b, c) })
}

// FanoutCounts returns, for every node, the number of live references to it
// (from live majority nodes and primary outputs).
func (m *MIG) FanoutCounts() []int {
	lp := takeBools(len(m.nodes))
	live := m.liveInto(*lp)
	defer releaseBools(lp)
	refs := make([]int, len(m.nodes))
	for i, nd := range m.nodes {
		if !live[i] || nd.kind != kindMaj {
			continue
		}
		for _, f := range nd.fanin {
			refs[f.Node()]++
		}
	}
	for _, o := range m.Outputs {
		refs[o.Sig.Node()]++
	}
	return refs
}

// Stats returns a one-line summary.
func (m *MIG) Stats() string {
	return fmt.Sprintf("%s: i/o=%d/%d size=%d depth=%d", m.Name, len(m.inputs), len(m.Outputs), m.Size(), m.Depth())
}

// FromNetwork converts a generic netlist into an MIG. Multi-input gates are
// decomposed into balanced trees of two-input operations to keep depth low.
func FromNetwork(n *netlist.Network) *MIG {
	m := New(n.Name)
	remap := make([]Signal, len(n.Nodes))
	ms := func(s netlist.Signal) Signal { return remap[s.Node()].NotIf(s.Neg()) }

	// balanced reduction of a list with a binary operator
	reduce := func(sigs []Signal, op func(a, b Signal) Signal) Signal {
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
			remap[i] = m.AddInput(name)
			inIdx++
		case netlist.Not:
			remap[i] = ms(nd.Fanins[0]).Not()
		case netlist.Buf:
			remap[i] = ms(nd.Fanins[0])
		case netlist.And, netlist.Nand:
			fs := mapSigs(nd.Fanins, ms)
			v := reduce(fs, m.And)
			remap[i] = v.NotIf(nd.Op == netlist.Nand)
		case netlist.Or, netlist.Nor:
			fs := mapSigs(nd.Fanins, ms)
			v := reduce(fs, m.Or)
			remap[i] = v.NotIf(nd.Op == netlist.Nor)
		case netlist.Xor, netlist.Xnor:
			fs := mapSigs(nd.Fanins, ms)
			v := reduce(fs, m.Xor)
			remap[i] = v.NotIf(nd.Op == netlist.Xnor)
		case netlist.Maj:
			remap[i] = m.Maj(ms(nd.Fanins[0]), ms(nd.Fanins[1]), ms(nd.Fanins[2]))
		case netlist.Mux:
			remap[i] = m.Mux(ms(nd.Fanins[0]), ms(nd.Fanins[1]), ms(nd.Fanins[2]))
		default:
			panic(fmt.Sprintf("mig: FromNetwork unsupported op %v", nd.Op))
		}
	}
	for _, o := range n.Outputs {
		m.AddOutput(o.Name, ms(o.Sig))
	}
	return m
}

func mapSigs(fs []netlist.Signal, ms func(netlist.Signal) Signal) []Signal {
	out := make([]Signal, len(fs))
	for i, f := range fs {
		out[i] = ms(f)
	}
	return out
}

// ToNetwork converts the MIG into the generic netlist IR (majority nodes
// become netlist.Maj gates; complement attributes are preserved on edges).
func (m *MIG) ToNetwork() *netlist.Network {
	n := netlist.New(m.Name)
	remap := make([]netlist.Signal, len(m.nodes))
	for idx, in := range m.inputs {
		remap[in] = n.AddInput(m.names[idx])
	}
	live := m.LiveMask()
	for i, nd := range m.nodes {
		if !live[i] || nd.kind != kindMaj {
			continue
		}
		a := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		b := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		c := remap[nd.fanin[2].Node()].NotIf(nd.fanin[2].Neg())
		remap[i] = n.AddGate(netlist.Maj, a, b, c)
	}
	for _, o := range m.Outputs {
		n.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return n
}

// InputNames returns the primary input names in declaration order.
func (m *MIG) InputNames() []string {
	return append([]string(nil), m.names...)
}

// SortedOutputs returns outputs sorted by name (helper for deterministic
// comparisons in tests and tools).
func (m *MIG) SortedOutputs() []Output {
	out := append([]Output(nil), m.Outputs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
