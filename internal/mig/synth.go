package mig

// Functional (Boolean) resynthesis of small functions into majority logic
// (the algorithm is described in synth6.go) and the cut-based rewriting
// pass built on it.

import (
	"repro/internal/tt"
)

// SynthesizeTT builds f, a function of at most six variables, over the
// given leaf signals and returns the root. It panics on a larger function
// or a leaf count that differs from f's variable count.
func (m *MIG) SynthesizeTT(f tt.TT, leaves []Signal) Signal {
	return m.synthW(f.Word(0), f.NumVars(), leaves)
}

// badSignal marks unset slots of dense remap tables. It is no valid signal:
// its node index exceeds any real graph.
const badSignal = ^Signal(0)

// RewritePass performs cut-based functional rewriting: each node's 4-input
// cut functions are re-synthesized from their truth tables and the variant
// creating the fewest new nodes (exploiting structural sharing) replaces
// the node. This is the Boolean extension of the algebraic Alg. 1.
//
// The pass reads the MIG's cut cache and keeps all per-node state in dense
// pooled slices; the only allocations are the output graph itself.
func (m *MIG) RewritePass() *MIG {
	cuts := m.CutSet(4, 5)
	out := New(m.Name)
	out.strash.Reserve(len(m.nodes))
	rp := takeSignals(len(m.nodes), badSignal)
	remap := *rp
	defer releaseSignals(rp)
	remap[0] = Const0
	for idx, in := range m.inputs {
		remap[in] = out.AddInput(m.names[idx])
	}
	lp := takeBools(len(m.nodes))
	live := m.liveInto(*lp)
	defer releaseBools(lp)
	var leafBuf, bestSigs []Signal
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !live[i] || nd.kind != kindMaj {
			continue
		}
		a := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		b := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		c := remap[nd.fanin[2].Node()].NotIf(nd.fanin[2].Neg())

		cp := out.checkpoint()
		def := out.Maj(a, b, c)
		defAdded := len(out.nodes) - cp
		defLevel := out.Level(def)
		out.rollback(cp)

		var bestW uint64
		bestN := 0
		haveBest := false
		bestAdded, bestLevel := defAdded, defLevel
		for ci := 0; ci < cuts.NumCuts(i); ci++ {
			leaves := cuts.Leaves(i, ci)
			if len(leaves) < 2 {
				continue
			}
			leafBuf = leafBuf[:0]
			okAll := true
			for _, l := range leaves {
				s := remap[l]
				if s == badSignal {
					okAll = false
					break
				}
				leafBuf = append(leafBuf, s)
			}
			if !okAll {
				continue
			}
			w := m.cutFuncW(i, leaves)
			cp := out.checkpoint()
			s := out.synthW(w, len(leafBuf), leafBuf)
			added := len(out.nodes) - cp
			level := out.Level(s)
			out.rollback(cp)
			if added < bestAdded || (added == bestAdded && level < bestLevel) {
				bestW = w
				bestN = len(leafBuf)
				bestSigs = append(bestSigs[:0], leafBuf...)
				haveBest = true
				bestAdded, bestLevel = added, level
			}
		}
		if haveBest {
			remap[i] = out.synthW(bestW, bestN, bestSigs)
		} else {
			remap[i] = out.Maj(a, b, c)
		}
	}
	for _, o := range m.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out
}
