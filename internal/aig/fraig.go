package aig

// Simulation-guided SAT sweeping over the AIG: the engine is internal/fraig,
// shared with the MIG; this file supplies only the AIG's view of it — node
// kinds, fanins, the AND-gate CNF encoder and the merge rebuild (through
// derive, so the factored-form memo carries over).

import (
	"context"

	"repro/internal/fraig"
	"repro/internal/sat"
)

// FraigPass runs up to rounds sweeping iterations with words 64-bit random
// simulation words (plus accumulated counterexample patterns), a conflict
// budget per SAT query, and candidate solving fanned over jobs workers.
func (a *AIG) FraigPass(words, rounds int, queryBudget int64, jobs int) *AIG {
	out, _ := a.FraigPassCtx(context.Background(), words, rounds, queryBudget, jobs)
	return out
}

// FraigPassCtx is FraigPass honoring a context and its session
// counterexample pool (see fraig.Run): cancellation returns the unmodified
// input with the context's error.
func (a *AIG) FraigPassCtx(ctx context.Context, words, rounds int, queryBudget int64, jobs int) (*AIG, error) {
	out, err := fraig.Run(ctx, fraigView{a}, 0xF4A161<<8, words, rounds, queryBudget, jobs)
	return out.AIG, err
}

// fraigView is the AIG as the fraig engine sees it.
type fraigView struct{ *AIG }

func (v fraigView) Inputs() []int { return v.inputs }

func (v fraigView) Kind(i int) fraig.Kind {
	switch v.nodes[i].kind {
	case kindConst:
		return fraig.Const
	case kindPI:
		return fraig.Input
	}
	return fraig.Gate
}

func (v fraigView) Fanins(i int, buf []uint32) []uint32 {
	f := &v.nodes[i].fanin
	return append(buf, uint32(f[0]), uint32(f[1]))
}

func (fraigView) EncodeGate(s *sat.Solver, out sat.Lit, ins []sat.Lit) {
	s.AddAndGate(out, ins...)
}

func (v fraigView) Merge(live []bool, repr []int32, phase []bool) fraigView {
	a := v.AIG
	out := a.derive()
	remap := make([]Signal, len(a.nodes))
	remap[0] = Const0
	for idx, in := range a.inputs {
		remap[in] = out.AddInput(a.names[idx])
	}
	for i, nd := range a.nodes {
		if nd.kind != kindAnd || !live[i] {
			continue
		}
		if r := repr[i]; r >= 0 {
			remap[i] = remap[r].NotIf(phase[i])
			continue
		}
		x := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		y := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		remap[i] = out.And(x, y)
	}
	for _, o := range a.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return fraigView{out.Cleanup()}
}
