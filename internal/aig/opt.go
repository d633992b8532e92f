package aig

import (
	"sort"

	"repro/internal/sop"
	"repro/internal/tt"
)

// Optimization passes in the style of ABC's resyn2 script: Balance (depth),
// Rewrite (size, 4-input cuts) and Refactor (size, larger cones). Every
// pass is a topological rebuild; candidate structures are probed with
// checkpoint/rollback and accepted when they improve on the default
// reconstruction.

// checkpoint returns a rollback token.
func (a *AIG) checkpoint() int { return len(a.nodes) }

// rollback removes nodes created after the checkpoint. Strash deletion is
// value-guarded so an entry of a surviving node can never be evicted (see
// the MIG twin in internal/mig/rewrite.go), and the cut cache is truncated
// back to the checkpoint.
func (a *AIG) rollback(cp int) {
	for i := len(a.nodes) - 1; i >= cp; i-- {
		if a.nodes[i].kind == kindAnd {
			f := a.nodes[i].fanin
			a.strash.DeleteAbove([2]uint32{uint32(f[0]), uint32(f[1])}, int32(cp))
		}
	}
	a.nodes = a.nodes[:cp]
	if a.cutCache != nil {
		a.cutCache.Truncate(cp)
	}
}

// Balance rebuilds AND trees as balanced (minimum-depth) trees, the analogue
// of ABC's "balance" command. Maximal single-fanout conjunction trees are
// collected in the old graph and re-assembled pairing the shallowest
// operands first.
func (a *AIG) Balance() *AIG {
	refs := a.FanoutCounts()
	out := a.derive()
	remap := make([]Signal, len(a.nodes))
	for idx, in := range a.inputs {
		remap[in] = out.AddInput(a.names[idx])
	}
	live := a.LiveMask()

	// Collect the leaves of the conjunction tree rooted at old node i.
	var collect func(s Signal, root bool, leaves *[]Signal)
	collect = func(s Signal, root bool, leaves *[]Signal) {
		nd := &a.nodes[s.Node()]
		if nd.kind == kindAnd && !s.Neg() && (root || refs[s.Node()] == 1) {
			collect(nd.fanin[0], false, leaves)
			collect(nd.fanin[1], false, leaves)
			return
		}
		*leaves = append(*leaves, s)
	}

	var leaves []Signal
	for i := range a.nodes {
		nd := &a.nodes[i]
		if !live[i] || nd.kind != kindAnd {
			continue
		}
		leaves = leaves[:0]
		collect(MakeSignal(i, false), true, &leaves)
		// Map leaves into the new graph, then combine the two shallowest
		// repeatedly.
		for k, l := range leaves {
			leaves[k] = remap[l.Node()].NotIf(l.Neg())
		}
		remap[i] = out.andByLevel(leaves)
	}
	for _, o := range a.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out
}

// byLevel orders signals by their level in g. sort.Sort runs the same
// pdqsort as sort.Slice, so it yields the identical permutation, but
// without sort.Slice's per-call closure and swapper allocations.
type byLevel struct {
	g    *AIG
	sigs []Signal
}

func (b *byLevel) Len() int           { return len(b.sigs) }
func (b *byLevel) Less(i, j int) bool { return b.g.Level(b.sigs[i]) < b.g.Level(b.sigs[j]) }
func (b *byLevel) Swap(i, j int)      { b.sigs[i], b.sigs[j] = b.sigs[j], b.sigs[i] }

// andByLevel returns the conjunction of sigs, built by repeatedly sorting
// the operands by level and replacing the two shallowest with their AND.
// It combines in place, so sigs is clobbered.
func (a *AIG) andByLevel(sigs []Signal) Signal {
	order := &a.synth.order
	order.g = a
	for len(sigs) > 1 {
		order.sigs = sigs
		sort.Sort(order)
		sigs[1] = a.And(sigs[0], sigs[1])
		sigs = sigs[1:]
	}
	return sigs[0]
}

// synthScratch is the reusable state of synthExpr: one operand stack shared
// by all recursion levels (each AND/OR node uses a frame above its
// caller's) and the sorter andByLevel drives.
type synthScratch struct {
	stack []Signal
	order byLevel
}

// factorMemo maps a cut function of at most six variables, keyed by its
// variable count and single truth-table word, to its sop.FactorTT result.
// sop.FactorTT is a pure function, so a hit builds exactly what a fresh
// factoring would.
type factorMemo map[factorKey]factored

type factorKey struct {
	n int
	w uint64
}

type factored struct {
	e   *sop.Expr
	neg bool
}

// factor returns sop.FactorTT(f), memoized when f has at most six
// variables.
func (a *AIG) factor(f tt.TT) (*sop.Expr, bool) {
	if f.NumVars() > 6 {
		return sop.FactorTT(f)
	}
	k := factorKey{f.NumVars(), f.Word(0)}
	if r, ok := a.memo[k]; ok {
		return r.e, r.neg
	}
	e, neg := sop.FactorTT(f)
	if a.memo == nil {
		a.memo = factorMemo{}
	}
	a.memo[k] = factored{e, neg}
	return e, neg
}

// synthExpr builds an expression tree in the AIG over the given leaf
// signals, pairing shallow operands first.
func (a *AIG) synthExpr(e *sop.Expr, leaves []Signal) Signal {
	switch e.Kind {
	case sop.ExprConst:
		if e.Val {
			return Const1
		}
		return Const0
	case sop.ExprLit:
		return leaves[e.Var].NotIf(e.Neg)
	case sop.ExprAnd, sop.ExprOr:
		or := e.Kind == sop.ExprOr
		base := len(a.synth.stack)
		for _, k := range e.Kids {
			s := a.synthExpr(k, leaves).NotIf(or)
			a.synth.stack = append(a.synth.stack, s)
		}
		s := a.andByLevel(a.synth.stack[base:])
		a.synth.stack = a.synth.stack[:base]
		return s.NotIf(or)
	}
	panic("aig: bad expression kind")
}

// SynthesizeTT builds f over the leaf signals via minimized, factored SOP.
// Factored forms of functions of up to six variables are memoized in out
// and carried to the graphs rebuilt from it; a memo hit with warm scratch
// allocates nothing beyond the nodes it adds.
func SynthesizeTT(out *AIG, f tt.TT, leaves []Signal) Signal {
	e, neg := out.factor(f)
	return out.synthExpr(e, leaves).NotIf(neg)
}

// Rewrite performs DAG-aware cut rewriting with 4-input cuts, the analogue
// of ABC's "rewrite".
func (a *AIG) Rewrite() *AIG {
	return a.cutResynth(4, 6)
}

// Refactor performs cone refactoring with larger cuts (up to 10 leaves),
// the analogue of ABC's "refactor".
func (a *AIG) Refactor() *AIG {
	return a.cutResynth(10, 2)
}

// badSignal marks unset slots of the dense remap table (no valid signal:
// the node index exceeds any real graph).
const badSignal = ^Signal(0)

// cutResynth rebuilds the AIG, resynthesizing each node from the best of
// its k-feasible cuts via minimized factored SOP. A candidate is accepted
// when it creates fewer nodes than the default reconstruction (exploiting
// sharing found by structural hashing), or the same number at lower level.
// Cuts come from the AIG's arena-backed cache; the remap is a dense pooled
// slice rather than a map.
func (a *AIG) cutResynth(k, maxCuts int) *AIG {
	cuts := a.CutSet(k, maxCuts)
	out := a.derive()
	out.strash.Reserve(len(a.nodes))
	remap := make([]Signal, len(a.nodes))
	for i := range remap {
		remap[i] = badSignal
	}
	remap[0] = Const0
	for idx, in := range a.inputs {
		remap[in] = out.AddInput(a.names[idx])
	}
	live := a.LiveMask()
	var leafBuf, bestSigs []Signal
	for i := range a.nodes {
		nd := &a.nodes[i]
		if !live[i] || nd.kind != kindAnd {
			continue
		}
		x := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		y := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())

		cp := out.checkpoint()
		def := out.And(x, y)
		defAdded := len(out.nodes) - cp
		defLevel := out.Level(def)
		out.rollback(cp)

		var bestF tt.TT
		haveBest := false
		bestAdded, bestLevel := defAdded, defLevel
		for ci := 0; ci < cuts.NumCuts(i); ci++ {
			leaves := cuts.Leaves(i, ci)
			if len(leaves) < 2 {
				continue
			}
			leafBuf = leafBuf[:0]
			ok := true
			for _, l := range leaves {
				s := remap[l]
				if s == badSignal {
					ok = false
					break
				}
				leafBuf = append(leafBuf, s)
			}
			if !ok {
				continue
			}
			f := a.cutFunc(i, leaves)
			cp := out.checkpoint()
			s := SynthesizeTT(out, f, leafBuf)
			added := len(out.nodes) - cp
			level := out.Level(s)
			out.rollback(cp)
			if added < bestAdded || (added == bestAdded && level < bestLevel) {
				bestF = f
				bestSigs = append(bestSigs[:0], leafBuf...)
				haveBest = true
				bestAdded, bestLevel = added, level
			}
		}
		if !haveBest {
			remap[i] = out.And(x, y)
		} else {
			remap[i] = SynthesizeTT(out, bestF, bestSigs)
		}
	}
	for _, o := range a.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out
}
