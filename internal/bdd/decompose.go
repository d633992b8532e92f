package bdd

import (
	"repro/internal/netlist"
)

// BDS-style decomposition: each BDD is converted into a multi-level network
// by walking the diagram top-down and extracting simple gates at nodes where
// a cofactor is constant or complementary:
//
//	f = ite(x, f1, 0)  →  x AND f1          (1-conjunctive)
//	f = ite(x, 0, f0)  →  x' AND f0
//	f = ite(x, f1, 1)  →  x' OR f1          (0-disjunctive)
//	f = ite(x, 1, f0)  →  x OR f0
//	f = ite(x, f0', f0) → x XOR f0          (complement cofactors)
//	otherwise          →  MUX(x, f1, f0)
//
// This captures the AND/OR/XOR dominator extraction at the heart of BDS
// (Yang & Ciesielski, TCAD 2002) in its simplest form; shared BDD nodes map
// to shared network nodes through the memo table.

// Decompose converts the given BDD roots into a logic network. inputNames
// provides the primary input name for each BDD variable; outputNames labels
// each root.
func (m *Manager) Decompose(roots []Ref, inputNames, outputNames []string) (*netlist.Network, error) {
	n := netlist.New("bds")
	vars := make([]netlist.Signal, m.numVars)
	for i := 0; i < m.numVars; i++ {
		name := ""
		if i < len(inputNames) {
			name = inputNames[i]
		}
		vars[i] = n.AddInput(name)
	}
	sigs, err := m.DecomposeInto(n, roots, vars)
	if err != nil {
		return nil, err
	}
	for i, s := range sigs {
		name := ""
		if i < len(outputNames) {
			name = outputNames[i]
		}
		n.AddOutput(name, s)
	}
	return n, nil
}

// DecomposeInto decomposes the BDD roots into gates appended to an existing
// network, reading BDD variable i from vars[i]. It returns one signal per
// root. This is the building block of the windowed (partitioned) BDS flow.
func (m *Manager) DecomposeInto(n *netlist.Network, roots []Ref, vars []netlist.Signal) ([]netlist.Signal, error) {
	memo := make(map[Ref]netlist.Signal)
	memo[False] = netlist.SigConst0
	memo[True] = netlist.SigConst1

	// Complement cache for XOR detection.
	notCache := make(map[Ref]Ref)
	complement := func(f Ref) (Ref, error) {
		if r, ok := notCache[f]; ok {
			return r, nil
		}
		r, err := m.Not(f)
		if err != nil {
			return False, err
		}
		notCache[f] = r
		notCache[r] = f
		return r, nil
	}

	var rec func(f Ref) (netlist.Signal, error)
	rec = func(f Ref) (netlist.Signal, error) {
		if s, ok := memo[f]; ok {
			return s, nil
		}
		nd := m.nodes[f]
		x := vars[nd.varIdx]
		var sig netlist.Signal
		switch {
		case nd.lo == False:
			h, err := rec(nd.hi)
			if err != nil {
				return 0, err
			}
			sig = n.AddGate(netlist.And, x, h)
		case nd.hi == False:
			l, err := rec(nd.lo)
			if err != nil {
				return 0, err
			}
			sig = n.AddGate(netlist.And, x.Not(), l)
		case nd.lo == True:
			h, err := rec(nd.hi)
			if err != nil {
				return 0, err
			}
			sig = n.AddGate(netlist.Or, x.Not(), h)
		case nd.hi == True:
			l, err := rec(nd.lo)
			if err != nil {
				return 0, err
			}
			sig = n.AddGate(netlist.Or, x, l)
		default:
			nlo, err := complement(nd.lo)
			if err != nil {
				return 0, err
			}
			if nd.hi == nlo {
				l, err := rec(nd.lo)
				if err != nil {
					return 0, err
				}
				sig = n.AddGate(netlist.Xor, x, l)
			} else {
				h, err := rec(nd.hi)
				if err != nil {
					return 0, err
				}
				l, err := rec(nd.lo)
				if err != nil {
					return 0, err
				}
				sig = n.AddGate(netlist.Mux, x, h, l)
			}
		}
		memo[f] = sig
		return sig, nil
	}

	out := make([]netlist.Signal, len(roots))
	for i, root := range roots {
		s, err := rec(root)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// DecomposeNetwork is the full BDS-style flow: build BDDs for a netlist in
// the declaration variable order and decompose them back into a (usually
// restructured) netlist. The limit bounds BDD construction; ErrLimit
// reproduces the BDS failures reported in the paper on BDD-hostile
// circuits.
func DecomposeNetwork(n *netlist.Network, limit int) (*netlist.Network, error) {
	order := make([]int, n.NumInputs())
	for i := range order {
		order[i] = i
	}
	return DecomposeNetworkOrdered(n, limit, order)
}
