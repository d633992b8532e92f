package mig

import (
	"testing"

	"repro/internal/mcnc"
)

// PriceStats counts what the pricing checker saw (see CheckPricing).
type PriceStats struct {
	Calls int
	// Folded counts candidates whose outer node Ω.M folded away after
	// inner nodes were built.
	Folded int
	// DupInner counts Ω.D L→R candidates whose two inner nodes are one new
	// node.
	DupInner int
	// MidCone counts Ψ.R candidates whose replacement cone alone overran
	// the budget, so the lookup walk stopped inside the cone.
	MidCone int
	// Rejected counts candidates over their budget.
	Rejected int
}

// CheckPricing makes every price call in this test also build the candidate
// for real (checkpoint, build, rollback) and fail the test unless the
// lookup-only verdict and cost equal the built ones.
func CheckPricing(t testing.TB) *PriceStats {
	st := &PriceStats{}
	checkPrice = func(m *MIG, c candidate, budget int, ok bool) {
		st.Calls++
		cp := m.checkpoint()
		// Build the candidate's inner nodes, then its outer node from
		// the fanins in outer.
		var outer [3]Signal
		switch c.shape {
		case shapeMaj:
			outer = [3]Signal{c.sig[0], c.sig[1], c.sig[2]}
		case shapeNested:
			outer = [3]Signal{c.sig[0], c.sig[1], m.Maj(c.sig[2], c.sig[3], c.sig[4])}
		case shapeDist:
			p := m.Maj(c.sig[0], c.sig[1], c.sig[2])
			q := m.Maj(c.sig[0], c.sig[1], c.sig[3])
			if p == q && p.Node() >= cp {
				st.DupInner++
			}
			outer = [3]Signal{p, q, c.sig[4]}
		case shapeRelevance:
			nz := m.replaceInCone(nil, c.sig[2], c.sig[0], c.sig[1].Not(), c.window)
			if len(m.nodes)-cp > budget {
				st.MidCone++
			}
			outer = [3]Signal{c.sig[0], c.sig[1], nz}
		}
		_, _, _, _, folded := canonMaj(outer[0], outer[1], outer[2])
		s := m.Maj(outer[0], outer[1], outer[2])
		added, level := len(m.nodes)-cp, m.Level(s)
		if folded && added > 0 {
			st.Folded++
		}
		m.rollback(cp)
		if ok != (added <= budget) {
			t.Fatalf("candidate %+v budget %d: lookup ok=%v, build added %d", c, budget, ok, added)
		}
		if !ok {
			st.Rejected++
			return
		}
		if c.added != added || c.level != level {
			t.Fatalf("candidate %+v: lookup added/level %d/%d, build %d/%d", c, c.added, c.level, added, level)
		}
	}
	t.Cleanup(func() { checkPrice = nil })
	return st
}

// SweepPricing runs the Ω/Ψ passes that price candidates (eliminate,
// eliminate-budget, reshape, pushup) over m under CheckPricing.
func SweepPricing(t testing.TB, m *MIG) *PriceStats {
	st := CheckPricing(t)
	m = m.Cleanup()
	deep := m.PushUpPass(true)
	deep.PushUpPass(false)
	for _, w := range []int{0, 3} {
		m.EliminatePass(w)
		m.ReshapePass(w, false)
	}
	deep.EliminatePassBudget(3, deep.Depth())
	deep.ReshapePass(3, false)
	return st
}

// TestLookupCostMatchesBuild checks that pricing a candidate by strash
// lookup gives exactly the verdict, node count and level that building it
// gives, on hand-made corner cases and on every candidate the Ω/Ψ passes
// consider over the MCNC circuits (Mesh(3000) is in mesh_test.go).
func TestLookupCostMatchesBuild(t *testing.T) {
	t.Run("corners", func(t *testing.T) {
		m := New("corners")
		a, b, c, d := m.AddInput("a"), m.AddInput("b"), m.AddInput("c"), m.AddInput("d")
		z := m.Maj(a, c, d) // level 1
		st := CheckPricing(t)
		for _, tc := range []struct {
			name         string
			cand         candidate
			budget       int
			ok           bool
			added, level int
		}{
			// M(a, a', M(b, c, d)) folds to the new inner node.
			{"fold-to-inner", candidate{shape: shapeNested, sig: [5]Signal{a, a.Not(), b, c, d}}, anyAdded, true, 1, 1},
			// M(a, a, M(b, c, d)) folds to a; the inner node still counts.
			{"fold-to-fanin", candidate{shape: shapeNested, sig: [5]Signal{a, a, b, c, d}}, anyAdded, true, 1, 0},
			// Ω.D L→R with u == v: both inner nodes are one new node, and
			// the outer M(p, p, d) folds to it.
			{"dup-inner", candidate{shape: shapeDist, sig: [5]Signal{a, b, c, c, d}}, anyAdded, true, 1, 1},
			{"existing", candidate{shape: shapeMaj, sig: [5]Signal{d, a, c}}, 0, true, 0, 1},
			{"new-over-budget", candidate{shape: shapeMaj, sig: [5]Signal{a, b, z}}, 0, false, 0, 0},
			// Ψ.R on M(a, b, z): z[a/b'] = M(b', c, d) is new, so a zero
			// budget stops the walk inside the cone.
			{"abort-mid-cone", candidate{shape: shapeRelevance, sig: [5]Signal{a, b, z}, window: 3}, 0, false, 0, 0},
			{"cone-within-budget", candidate{shape: shapeRelevance, sig: [5]Signal{a, b, z}, window: 3}, 2, true, 2, 2},
		} {
			cand := tc.cand
			if ok := m.price(&cand, tc.budget); ok != tc.ok || (ok && (cand.added != tc.added || cand.level != tc.level)) {
				t.Errorf("%s: price ok=%v added=%d level=%d, want %v %d %d", tc.name, ok, cand.added, cand.level, tc.ok, tc.added, tc.level)
			}
		}
		if st.Folded != 3 || st.DupInner != 1 || st.MidCone != 1 {
			t.Errorf("corner coverage %+v", *st)
		}
		// A depth-budget rejection: f = M(M(a,b,c), M(a,b,d), y) equals the
		// existing, one level deeper g = M(a, b, M(c, d, y)) by Ω.D R→L, so
		// eliminate maps f onto g at no added node. The budget refuses,
		// since f also feeds h.
		y := m.Maj(m.Maj(z, b, c.Not()), d, a.Not())
		m.AddOutput("g", m.Maj(a, b, m.Maj(c, d, y)))
		f := m.Maj(m.Maj(a, b, c), m.Maj(a, b, d), y)
		m.AddOutput("h", m.Maj(f, a, c.Not()))
		free, kept := m.EliminatePass(0), m.EliminatePassBudget(0, m.Depth())
		if free.Size() >= kept.Size() || kept.Depth() != m.Depth() || free.Depth() <= m.Depth() {
			t.Errorf("budget rejection not exercised: input %d/%d, free %d/%d, budgeted %d/%d",
				m.Size(), m.Depth(), free.Size(), free.Depth(), kept.Size(), kept.Depth())
		}
	})
	var total PriceStats
	for _, name := range mcnc.Names() {
		n, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		st := SweepPricing(t, FromNetwork(n))
		total.Calls += st.Calls
		total.Folded += st.Folded
		total.MidCone += st.MidCone
		total.Rejected += st.Rejected
	}
	t.Logf("MCNC: %+v", total)
	if total.Folded == 0 || total.MidCone == 0 || total.Rejected == 0 {
		t.Errorf("sweep missed a case: %+v", total)
	}
}
