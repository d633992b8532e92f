package mig

// Simulation-guided SAT sweeping (the classic fraig flow) over the MIG. The
// engine — round loop, counterexample pool, pooled solvers, cone encoding —
// is internal/fraig, shared with the AIG; this file supplies only the MIG's
// view of it: node kinds, fanins, the majority-gate CNF encoder and the
// dense-remap merge rebuild.

import (
	"context"

	"repro/internal/fraig"
	"repro/internal/sat"
)

// FraigPass runs up to rounds sweeping iterations with words 64-bit random
// simulation words (plus accumulated counterexample patterns), a conflict
// budget per SAT query, and candidate solving fanned over jobs workers.
// The result is functionally equivalent to the input and never larger.
func (m *MIG) FraigPass(words, rounds int, queryBudget int64, jobs int) *MIG {
	out, _ := m.FraigPassCtx(context.Background(), words, rounds, queryBudget, jobs)
	return out
}

// FraigPassCtx is FraigPass honoring a context and its session
// counterexample pool (see fraig.Run): cancellation returns the unmodified
// input graph with the context's error.
func (m *MIG) FraigPassCtx(ctx context.Context, words, rounds int, queryBudget int64, jobs int) (*MIG, error) {
	out, err := fraig.Run(ctx, fraigView{m}, 0xF4A160<<8, words, rounds, queryBudget, jobs)
	return out.MIG, err
}

// fraigView is the MIG as the fraig engine sees it.
type fraigView struct{ *MIG }

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
	return append(buf, uint32(f[0]), uint32(f[1]), uint32(f[2]))
}

func (fraigView) EncodeGate(s *sat.Solver, out sat.Lit, ins []sat.Lit) {
	s.AddMajGate(out, ins[0], ins[1], ins[2])
}

// Merge is the dense-remap rebuild with substitution: a merged node's
// references redirect to its representative's rebuilt signal; strashing in
// Maj collapses the rest. Cleanup drops the cones that became dead.
func (v fraigView) Merge(live []bool, repr []int32, phase []bool) fraigView {
	m := v.MIG
	out := New(m.Name)
	remap := make([]Signal, len(m.nodes))
	remap[0] = Const0
	for idx, in := range m.inputs {
		remap[in] = out.AddInput(m.names[idx])
	}
	for i, nd := range m.nodes {
		if nd.kind != kindMaj || !live[i] {
			continue
		}
		if r := repr[i]; r >= 0 {
			remap[i] = remap[r].NotIf(phase[i])
			continue
		}
		a := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		b := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		c := remap[nd.fanin[2].Node()].NotIf(nd.fanin[2].Neg())
		remap[i] = out.Maj(a, b, c)
	}
	for _, o := range m.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return fraigView{out.Cleanup()}
}
