// Package bdd implements Reduced Ordered Binary Decision Diagrams with a
// unique table, an ITE-based apply engine, and a BDS-style decomposition of
// BDDs back into multi-level logic networks (AND/OR/XOR/MUX extraction at
// dominator nodes). It is the repository's stand-in for the BDS tool used as
// the second baseline in the paper's experiments.
//
// The manager enforces a node limit; building a BDD past the limit returns
// ErrLimit, which the experiment harness reports as "N.A." — reproducing the
// BDS failures the paper observed on clma and the compression circuit.
package bdd

import (
	"errors"
	"fmt"

	"repro/internal/netlist"
	"repro/internal/tt"
)

// Ref references a BDD node. Refs 0 and 1 are the constant leaves.
type Ref uint32

// Constant leaves.
const (
	False Ref = 0
	True  Ref = 1
)

// ErrLimit is returned when an operation would exceed the manager's node
// limit.
var ErrLimit = errors.New("bdd: node limit exceeded")

type bddNode struct {
	varIdx int32 // variable index; -1 for terminals
	lo, hi Ref
}

type nodeKey struct {
	varIdx int32
	lo, hi Ref
}

// Manager owns the node store of a BDD forest.
type Manager struct {
	numVars int
	limit   int
	nodes   []bddNode
	unique  map[nodeKey]Ref
	ite     map[[3]Ref]Ref
}

// NewManager creates a manager for numVars variables with the given node
// limit (0 means a default of 1<<22 nodes).
func NewManager(numVars, limit int) *Manager {
	if limit <= 0 {
		limit = 1 << 22
	}
	return &Manager{
		numVars: numVars,
		limit:   limit,
		nodes: []bddNode{
			{varIdx: -1}, // False
			{varIdx: -1}, // True
		},
		unique: make(map[nodeKey]Ref),
		ite:    make(map[[3]Ref]Ref),
	}
}

// NumVars returns the number of variables.
func (m *Manager) NumVars() int { return m.numVars }

// NumNodes returns the total number of nodes allocated (including leaves).
func (m *Manager) NumNodes() int { return len(m.nodes) }

// errLimit is the internal panic payload for limit overflow.
type limitPanic struct{}

// mk finds or creates the node (v, lo, hi), applying the reduction rules.
func (m *Manager) mk(v int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := nodeKey{v, lo, hi}
	if r, ok := m.unique[key]; ok {
		return r
	}
	if len(m.nodes) >= m.limit {
		panic(limitPanic{})
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, bddNode{varIdx: v, lo: lo, hi: hi})
	m.unique[key] = r
	return r
}

// Var returns the BDD of variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range", i))
	}
	return m.mk(int32(i), False, True)
}

// topVar returns the top variable of f (numVars for terminals so they sort
// last).
func (m *Manager) topVar(f Ref) int32 {
	v := m.nodes[f].varIdx
	if v < 0 {
		return int32(m.numVars)
	}
	return v
}

func (m *Manager) cofactors(f Ref, v int32) (lo, hi Ref) {
	if m.topVar(f) == v {
		return m.nodes[f].lo, m.nodes[f].hi
	}
	return f, f
}

// iteRec computes ITE(f, g, h) recursively with caching.
func (m *Manager) iteRec(f, g, h Ref) Ref {
	// Terminal cases.
	if f == True {
		return g
	}
	if f == False {
		return h
	}
	if g == h {
		return g
	}
	if g == True && h == False {
		return f
	}
	key := [3]Ref{f, g, h}
	if r, ok := m.ite[key]; ok {
		return r
	}
	v := m.topVar(f)
	if tv := m.topVar(g); tv < v {
		v = tv
	}
	if tv := m.topVar(h); tv < v {
		v = tv
	}
	f0, f1 := m.cofactors(f, v)
	g0, g1 := m.cofactors(g, v)
	h0, h1 := m.cofactors(h, v)
	lo := m.iteRec(f0, g0, h0)
	hi := m.iteRec(f1, g1, h1)
	r := m.mk(v, lo, hi)
	m.ite[key] = r
	return r
}

// guard converts the limit panic into ErrLimit.
func (m *Manager) guard(f func() Ref) (r Ref, err error) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(limitPanic); ok {
				err = ErrLimit
				return
			}
			panic(p)
		}
	}()
	return f(), nil
}

// ITE computes if-then-else.
func (m *Manager) ITE(f, g, h Ref) (Ref, error) {
	return m.guard(func() Ref { return m.iteRec(f, g, h) })
}

// And computes f AND g.
func (m *Manager) And(f, g Ref) (Ref, error) {
	return m.guard(func() Ref { return m.iteRec(f, g, False) })
}

// Or computes f OR g.
func (m *Manager) Or(f, g Ref) (Ref, error) {
	return m.guard(func() Ref { return m.iteRec(f, True, g) })
}

// Not computes the complement of f.
func (m *Manager) Not(f Ref) (Ref, error) {
	return m.guard(func() Ref { return m.iteRec(f, False, True) })
}

// Xor computes f XOR g.
func (m *Manager) Xor(f, g Ref) (Ref, error) {
	return m.guard(func() Ref {
		ng := m.iteRec(g, False, True)
		return m.iteRec(f, ng, g)
	})
}

// Maj computes the three-input majority.
func (m *Manager) Maj(f, g, h Ref) (Ref, error) {
	return m.guard(func() Ref {
		fg := m.iteRec(f, g, False)
		fh := m.iteRec(f, h, False)
		gh := m.iteRec(g, h, False)
		return m.iteRec(fg, True, m.iteRec(fh, True, gh))
	})
}

// FromTT builds the BDD of a truth table (Shannon expansion from the top
// variable down). Intended for small functions (windowed decomposition).
func (m *Manager) FromTT(f tt.TT) (Ref, error) {
	if f.NumVars() > m.numVars {
		return False, fmt.Errorf("bdd: FromTT over %d vars in %d-var manager", f.NumVars(), m.numVars)
	}
	return m.guard(func() Ref { return m.fromTTRec(f, f.NumVars()-1) })
}

func (m *Manager) fromTTRec(f tt.TT, top int) Ref {
	if f.IsConst0() {
		return False
	}
	if f.IsConst1() {
		return True
	}
	// Find the highest variable the function depends on.
	v := top
	for v >= 0 && !f.DependsOn(v) {
		v--
	}
	lo := m.fromTTRec(f.Cofactor0(v), v-1)
	hi := m.fromTTRec(f.Cofactor1(v), v-1)
	return m.mk(int32(v), lo, hi)
}

// NodeInfo exposes the variable index and cofactors of a node (for
// cross-manager structural comparison). Terminals return varIdx -1.
func (m *Manager) NodeInfo(f Ref) (varIdx int32, lo, hi Ref) {
	nd := m.nodes[f]
	return nd.varIdx, nd.lo, nd.hi
}

// Eval evaluates f under the given variable assignment.
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	for f != False && f != True {
		nd := m.nodes[f]
		if assignment[nd.varIdx] {
			f = nd.hi
		} else {
			f = nd.lo
		}
	}
	return f == True
}

// CountNodes returns the number of distinct internal nodes reachable from
// the given roots (the shared BDD size).
func (m *Manager) CountNodes(roots []Ref) int {
	seen := make(map[Ref]bool)
	var stack []Ref
	stack = append(stack, roots...)
	count := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f == False || f == True || seen[f] {
			continue
		}
		seen[f] = true
		count++
		stack = append(stack, m.nodes[f].lo, m.nodes[f].hi)
	}
	return count
}

// BuildNetwork constructs the BDDs of every output of a netlist in the
// declaration variable order. It returns the manager and one root per
// output, or ErrLimit when the network blows past the node limit.
func BuildNetwork(n *netlist.Network, limit int) (*Manager, []Ref, error) {
	return BuildNetworkOrdered(n, limit, nil)
}

// BuildNetworkOrdered is BuildNetwork with an explicit variable order:
// order[k] gives the input index assigned to BDD level k (nil is the
// declaration order, input k at level k).
func BuildNetworkOrdered(n *netlist.Network, limit int, order []int) (m2 *Manager, roots2 []Ref, err2 error) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(limitPanic); ok {
				m2, roots2, err2 = nil, nil, ErrLimit
				return
			}
			panic(p)
		}
	}()
	level := make([]int, n.NumInputs()) // input index -> level
	for k := range level {
		level[k] = k
	}
	for k, v := range order {
		level[v] = k
	}
	m := NewManager(n.NumInputs(), limit)
	vals := make([]Ref, len(n.Nodes))
	var err error
	get := func(s netlist.Signal) Ref {
		v := vals[s.Node()]
		if s.Neg() {
			nv, e := m.Not(v)
			if e != nil {
				err = e
				return False
			}
			return nv
		}
		return v
	}
	inIdx := 0
	for i, nd := range n.Nodes {
		if err != nil {
			return nil, nil, err
		}
		switch nd.Op {
		case netlist.Const0:
			vals[i] = False
		case netlist.Input:
			vals[i] = m.Var(level[inIdx])
			inIdx++
		case netlist.Not:
			vals[i], err = m.Not(get(nd.Fanins[0]))
		case netlist.Buf:
			vals[i] = get(nd.Fanins[0])
		case netlist.And, netlist.Nand:
			v := True
			for _, f := range nd.Fanins {
				v, err = m.And(v, get(f))
				if err != nil {
					return nil, nil, err
				}
			}
			if nd.Op == netlist.Nand {
				v, err = m.Not(v)
			}
			vals[i] = v
		case netlist.Or, netlist.Nor:
			v := False
			for _, f := range nd.Fanins {
				v, err = m.Or(v, get(f))
				if err != nil {
					return nil, nil, err
				}
			}
			if nd.Op == netlist.Nor {
				v, err = m.Not(v)
			}
			vals[i] = v
		case netlist.Xor, netlist.Xnor:
			v := False
			for _, f := range nd.Fanins {
				v, err = m.Xor(v, get(f))
				if err != nil {
					return nil, nil, err
				}
			}
			if nd.Op == netlist.Xnor {
				v, err = m.Not(v)
			}
			vals[i] = v
		case netlist.Maj:
			vals[i], err = m.Maj(get(nd.Fanins[0]), get(nd.Fanins[1]), get(nd.Fanins[2]))
		case netlist.Mux:
			vals[i], err = m.ITE(get(nd.Fanins[0]), get(nd.Fanins[1]), get(nd.Fanins[2]))
		}
		if err != nil {
			return nil, nil, err
		}
	}
	roots := make([]Ref, len(n.Outputs))
	for i, o := range n.Outputs {
		roots[i] = get(o.Sig)
		if err != nil {
			return nil, nil, err
		}
	}
	return m, roots, nil
}
