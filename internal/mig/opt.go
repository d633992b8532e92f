package mig

// Optimization algorithms from Section IV of the paper.
//
// Algorithm 1 (size):   eliminate (Ω.M L→R, Ω.D R→L) — reshape (Ω.A, Ψ.C,
// Ψ.R, Ψ.S) — eliminate, iterated over a user-defined effort.
//
// Algorithm 2 (depth):  push-up of critical variables (Ω.M L→R, Ω.D L→R,
// Ω.A, Ψ.C) — reshape — push-up, iterated over the effort.
//
// Activity (§IV.C):     size optimization plus probability-aware relevance
// exchanges that prefer node constructions whose output probability is far
// from 0.5.
//
// All passes are implemented as topological rebuilds. The size and depth
// passes price every candidate by strash lookup (price) and build only the
// winner; the activity pass still probes with checkpoint/rollback, since
// its cost needs the built nodes' probabilities. Every pass preserves
// functional equivalence (the rules are the paper's sound Ω/Ψ
// transformations) — this is verified extensively in the tests.

// candidate describes a local construction. Instead of capturing a rebuild
// closure (which escapes to the heap on every probe), a candidate records
// its shape and parameter signals; buildCand walks it, either building it
// or pricing it. This keeps the pricing inner loop allocation-free.
type candidate struct {
	shape  candShape
	sig    [5]Signal
	window int
	added  int
	level  int
}

// candShape enumerates the local construction templates of the Ω/Ψ passes.
type candShape uint8

const (
	// shapeMaj: M(s0, s1, s2) — the default reconstruction.
	shapeMaj candShape = iota
	// shapeNested: M(s0, s1, M(s2, s3, s4)) — Ω.D R→L, Ω.A, Ψ.C.
	shapeNested
	// shapeDist: M(M(s0,s1,s2), M(s0,s1,s3), s4) — Ω.D L→R.
	shapeDist
	// shapeRelevance: M(s0, s1, s2[s0/s1']) — Ψ.R with the replacement
	// cone bounded by window.
	shapeRelevance
)

// buildCand constructs the candidate in the MIG and returns its signal, or,
// with a non-nil o, only prices it over o (see overlay).
func (m *MIG) buildCand(o *overlay, c *candidate) Signal {
	switch c.shape {
	case shapeMaj:
		return m.maj(o, c.sig[0], c.sig[1], c.sig[2])
	case shapeNested:
		return m.maj(o, c.sig[0], c.sig[1], m.maj(o, c.sig[2], c.sig[3], c.sig[4]))
	case shapeDist:
		return m.maj(o, m.maj(o, c.sig[0], c.sig[1], c.sig[2]), m.maj(o, c.sig[0], c.sig[1], c.sig[3]), c.sig[4])
	case shapeRelevance:
		nz := m.replaceInCone(o, c.sig[2], c.sig[0], c.sig[1].Not(), c.window)
		return m.maj(o, c.sig[0], c.sig[1], nz)
	}
	panic("mig: unknown candidate shape")
}

// anyAdded is the pricing budget of the fixed shapes: none adds more than
// three nodes.
const anyAdded = 3

// checkPrice, when set, is called after every price. Tests use it to
// compare the lookup-only cost with a real build.
var checkPrice func(m *MIG, c candidate, budget int, ok bool)

// price reports whether building c would add at most budget nodes
// (budget <= 3) and, if so, fills c.added and c.level with the node count
// and level that build would give, without touching the graph.
func (m *MIG) price(c *candidate, budget int) bool {
	o := overlay{base: len(m.nodes), max: budget}
	s := m.buildCand(&o, c)
	ok := !o.spent
	if ok {
		c.added, c.level = o.n, int(m.levelIn(&o, s))
	}
	if checkPrice != nil {
		checkPrice(m, *c, budget, ok)
	}
	return ok
}

// better reports whether a beats b under (primary, secondary) ordering.
func betterSize(a, b *candidate) bool {
	if a.added != b.added {
		return a.added < b.added
	}
	return a.level < b.level
}

func betterDepth(a, b *candidate) bool {
	if a.level != b.level {
		return a.level < b.level
	}
	return a.added < b.added
}

// EliminatePass applies the node-elimination rules over the whole MIG: the
// trivial majority rules Ω.M (built into strashing), distributivity right-
// to-left Ω.D R→L, and window-bounded relevance Ψ.R when it strictly
// reduces the number of nodes. Returns a new MIG.
func (m *MIG) EliminatePass(window int) *MIG {
	return m.eliminate(window, -1)
}

// EliminatePassBudget is EliminatePass restricted by a global depth budget:
// a candidate is accepted only when the rebuilt node's level stays within
// the slack the budget leaves at that node, so the pass can undo Ω.D
// duplication off the critical path without lengthening it (slack-aware
// size recovery after depth optimization).
func (m *MIG) EliminatePassBudget(window, depthBudget int) *MIG {
	return m.eliminate(window, depthBudget)
}

func (m *MIG) eliminate(window, depthBudget int) *MIG {
	refs := m.FanoutCounts()
	// required[i] is the maximum level node i may take without pushing any
	// output past the budget (-1 disables the gate).
	var required []int
	if depthBudget >= 0 {
		rev := m.reverseLevels()
		required = make([]int, len(m.nodes))
		for i := range required {
			if rev[i] < 0 {
				required[i] = depthBudget
			} else {
				required[i] = depthBudget - rev[i]
			}
		}
	}
	return m.rebuildWith(func(out *MIG, oldIdx int, a, b, c Signal) Signal {
		def := candidate{shape: shapeMaj, sig: [5]Signal{a, b, c}}
		out.price(&def, anyAdded)
		best := def
		within := func(cand *candidate) bool {
			return required == nil || cand.level <= required[oldIdx]
		}

		// Ω.D R→L: M(M(x,y,u), M(x,y,v), z) = M(x,y,M(u,v,z)) when the two
		// inner nodes share two fanins and are not referenced elsewhere.
		oldF := m.nodes[oldIdx].fanin
		tryDist := func(p, q, r Signal, oldP, oldQ Signal) {
			px, py, pz, okP := out.majView(p)
			qx, qy, qz, okQ := out.majView(q)
			if !okP || !okQ {
				return
			}
			if refs[oldP.Node()] > 1 || refs[oldQ.Node()] > 1 {
				return
			}
			pf := [3]Signal{px, py, pz}
			qf := [3]Signal{qx, qy, qz}
			// Find a common pair of signals.
			for i := 0; i < 3; i++ {
				for j := i + 1; j < 3; j++ {
					x, y := pf[i], pf[j]
					u := pf[3-i-j]
					// Does q contain both x and y?
					v, found := Signal(0), false
					if qf[0] == x && qf[1] == y {
						v, found = qf[2], true
					} else if qf[0] == x && qf[2] == y {
						v, found = qf[1], true
					} else if qf[1] == x && qf[2] == y {
						v, found = qf[0], true
					} else if qf[0] == y && qf[1] == x {
						v, found = qf[2], true
					} else if qf[0] == y && qf[2] == x {
						v, found = qf[1], true
					} else if qf[1] == y && qf[2] == x {
						v, found = qf[0], true
					}
					if !found {
						continue
					}
					// M(x, y, M(u, v, r)).
					cand := candidate{shape: shapeNested, sig: [5]Signal{x, y, u, v, r}}
					out.price(&cand, anyAdded)
					if within(&cand) && betterSize(&cand, &best) {
						best = cand
					}
				}
			}
		}
		tryDist(a, b, c, oldF[0], oldF[1])
		tryDist(a, c, b, oldF[0], oldF[2])
		tryDist(b, c, a, oldF[1], oldF[2])

		// Ψ.R: M(x, y, z) = M(x, y, z_{x/y'}) — accept only when strictly
		// fewer nodes are created than the default construction, so none
		// can win when the default node already exists.
		if window > 0 && def.added > 0 {
			for _, perm := range relevanceCandidates(a, b, c) {
				x, y, z := perm[0], perm[1], perm[2]
				if !out.coneContains(z, x, window) {
					continue
				}
				cand := candidate{shape: shapeRelevance, sig: [5]Signal{x, y, z}, window: window}
				if out.price(&cand, def.added-1) && within(&cand) && betterSize(&cand, &best) {
					best = cand
				}
			}
		}
		return out.buildCand(nil, &best)
	})
}

// PushUpPass applies the depth-oriented rules along critical paths:
// associativity Ω.A, complementary associativity Ψ.C (both depth-neutral in
// size), and distributivity left-to-right Ω.D (one extra node, applied on
// the critical path only, unless allowInflate). Returns a new MIG.
func (m *MIG) PushUpPass(allowInflate bool) *MIG {
	crit := m.criticalMask()
	return m.rebuildWith(func(out *MIG, oldIdx int, a, b, c Signal) Signal {
		def := candidate{shape: shapeMaj, sig: [5]Signal{a, b, c}}
		out.price(&def, anyAdded)
		best := def

		fan := [3]Signal{a, b, c}
		for gi := 0; gi < 3; gi++ {
			g := fan[gi]
			gx, gy, gz, ok := out.majView(g)
			if !ok {
				continue
			}
			// The two remaining top-level fanins.
			t1, t2 := fan[(gi+1)%3], fan[(gi+2)%3]
			// Only bother when g is the (strictly) deepest fanin: pushing a
			// variable out of a non-critical child cannot reduce the level.
			if out.Level(g) <= out.Level(t1) || out.Level(g) <= out.Level(t2) {
				continue
			}
			gf := [3]Signal{gx, gy, gz}

			// Ω.A: M(x, u, M(y, u, z)) = M(z, u, M(y, u, x)).
			for _, u := range []Signal{t1, t2} {
				x := t1
				if u == t1 {
					x = t2
				}
				for k := 0; k < 3; k++ {
					if gf[k] != u {
						continue
					}
					// u is shared; the other two grandchildren may be
					// swapped with x.
					for zi := 0; zi < 3; zi++ {
						if zi == k {
							continue
						}
						z := gf[zi]
						y := gf[3-k-zi]
						// M(z, u, M(y, u, x)).
						cand := candidate{shape: shapeNested, sig: [5]Signal{z, u, y, u, x}}
						out.price(&cand, anyAdded)
						if betterDepth(&cand, &best) {
							best = cand
						}
					}
				}
			}

			// Ψ.C: M(x, u, M(y, u', z)) = M(x, u, M(y, x, z)).
			for _, u := range []Signal{t1, t2} {
				x := t1
				if u == t1 {
					x = t2
				}
				for k := 0; k < 3; k++ {
					if gf[k] != u.Not() {
						continue
					}
					y := gf[(k+1)%3]
					z := gf[(k+2)%3]
					// M(x, u, M(y, x, z)).
					cand := candidate{shape: shapeNested, sig: [5]Signal{x, u, y, x, z}}
					out.price(&cand, anyAdded)
					if betterDepth(&cand, &best) {
						best = cand
					}
					// Composed Ψ.C → Ω.A: after the exchange the top node is
					// M(x, u, M(y, x, z)) with x shared, so associativity can
					// swap u with either remaining grandchild. This pair of
					// moves is what shortens g = x(y+uv) in the paper's
					// Fig. 2(c) even though Ψ.C alone is depth-neutral.
					for _, w := range [][2]Signal{{y, z}, {z, y}} {
						// M(w0, x, M(w1, x, u)).
						cand2 := candidate{shape: shapeNested, sig: [5]Signal{w[0], x, w[1], x, u}}
						out.price(&cand2, anyAdded)
						if betterDepth(&cand2, &best) {
							best = cand2
						}
					}
				}
			}

			// Ω.D L→R: M(x, y, M(u, v, z)) = M(M(x,y,u), M(x,y,v), z),
			// pushing the critical grandchild z one level up at the price of
			// one node. Restricted to the critical path unless inflation is
			// allowed.
			if allowInflate || crit[oldIdx] {
				// Choose the deepest grandchild as z.
				zi := 0
				for k := 1; k < 3; k++ {
					if out.Level(gf[k]) > out.Level(gf[zi]) {
						zi = k
					}
				}
				z := gf[zi]
				u := gf[(zi+1)%3]
				v := gf[(zi+2)%3]
				cand := candidate{shape: shapeDist, sig: [5]Signal{t1, t2, u, v, z}}
				out.price(&cand, anyAdded)
				if cand.level < def.level && betterDepth(&cand, &best) {
					best = cand
				}
			}
		}
		return out.buildCand(nil, &best)
	})
}

// ReshapePass jiggles the structure to escape local minima: relevance
// exchanges Ψ.R that do not create nodes (thereby increasing sharing), and,
// when aggressive, substitution Ψ.S on small output cones.
func (m *MIG) ReshapePass(window int, aggressive bool) *MIG {
	res := m.rebuildWith(func(out *MIG, oldIdx int, a, b, c Signal) Signal {
		def := candidate{shape: shapeMaj, sig: [5]Signal{a, b, c}}
		out.price(&def, anyAdded)
		best := def
		for _, perm := range relevanceCandidates(a, b, c) {
			x, y, z := perm[0], perm[1], perm[2]
			if !out.coneContains(z, x, window) {
				continue
			}
			cand := candidate{shape: shapeRelevance, sig: [5]Signal{x, y, z}, window: window}
			// Accept sharing-increasing or level-reducing exchanges.
			if out.price(&cand, def.added) && (cand.added < def.added || cand.level < def.level) && betterSize(&cand, &best) {
				best = cand
			}
		}
		return out.buildCand(nil, &best)
	})
	if !aggressive {
		return res
	}
	// Ψ.S on small critical output cones: substitute a pair of cone inputs
	// and let the next elimination exploit the new structure.
	return res.substitutionReshape(64)
}

// substitutionReshape applies Ψ.S to output cones with at most maxCone
// majority nodes, substituting the two most frequent cone leaves.
func (m *MIG) substitutionReshape(maxCone int) *MIG {
	out := m.Clone()
	for oi, o := range out.Outputs {
		nodes, leaves := out.coneOf(o.Sig, maxCone)
		if nodes == 0 || len(leaves) < 2 {
			continue
		}
		v, u := leaves[0], leaves[1]
		ns := out.SubstituteVar(o.Sig, MakeSignal(v, false), MakeSignal(u, false), 64)
		out.Outputs[oi].Sig = ns
	}
	return out.Cleanup()
}

// coneOf returns the number of majority nodes in the cone of s (up to limit;
// 0 is returned when the cone exceeds the limit) and the cone's leaf nodes
// (PIs) ordered by number of occurrences.
func (m *MIG) coneOf(s Signal, limit int) (int, []int) {
	seen := map[int]bool{}
	leafCount := map[int]int{}
	var stack []int
	stack = append(stack, s.Node())
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		switch m.nodes[v].kind {
		case kindPI:
			leafCount[v]++
		case kindMaj:
			count++
			if count > limit {
				return 0, nil
			}
			for _, f := range m.nodes[v].fanin {
				if m.nodes[f.Node()].kind == kindPI {
					leafCount[f.Node()]++
				} else {
					stack = append(stack, f.Node())
				}
			}
		}
	}
	leaves := make([]int, 0, len(leafCount))
	for l := range leafCount {
		leaves = append(leaves, l)
	}
	// Order by occurrence count (descending), then node id for determinism.
	for i := 1; i < len(leaves); i++ {
		for j := i; j > 0; j-- {
			a, b := leaves[j-1], leaves[j]
			if leafCount[b] > leafCount[a] || (leafCount[b] == leafCount[a] && b < a) {
				leaves[j-1], leaves[j] = b, a
			} else {
				break
			}
		}
	}
	return count, leaves
}

// ActivityPass performs relevance exchanges that lower the switching
// activity of the constructed nodes without increasing size, under the
// given input probability profile (nil = uniform).
//
// Cost model: for each candidate construction, the activity of the local
// structure (the created nodes, the root, and the root's majority fanins)
// is compared; a candidate may create one extra node when the fanin cone it
// replaces is single-fanout in the old graph (the old cone dies, so the
// live size is unchanged).
func (m *MIG) ActivityPass(inputProbs []float64) *MIG {
	refs := m.FanoutCounts()
	var probs []float64
	inIdx := 0
	extend := func(out *MIG) {
		for i := len(probs); i < len(out.nodes); i++ {
			nd := &out.nodes[i]
			switch nd.kind {
			case kindConst:
				probs = append(probs, 0)
			case kindPI:
				p := 0.5
				if inputProbs != nil && inIdx < len(inputProbs) {
					p = inputProbs[inIdx]
				}
				inIdx++
				probs = append(probs, p)
			case kindMaj:
				get := func(s Signal) float64 {
					v := probs[s.Node()]
					if s.Neg() {
						return 1 - v
					}
					return v
				}
				a := get(nd.fanin[0])
				b := get(nd.fanin[1])
				c := get(nd.fanin[2])
				probs = append(probs, a*b+a*c+b*c-2*a*b*c)
			}
		}
	}
	// localActivity sums 2p(1-p) over the created nodes, the root, and the
	// root's majority fanins (each node once).
	localActivity := func(out *MIG, cp int, root Signal) float64 {
		extend(out)
		seen := out.scr.begin(len(out.nodes))
		total := 0.0
		add := func(idx int) {
			if seen.seen(idx) || out.nodes[idx].kind != kindMaj {
				return
			}
			seen.mark(idx)
			p := probs[idx]
			total += 2 * p * (1 - p)
		}
		for i := cp; i < len(out.nodes); i++ {
			add(i)
		}
		add(root.Node())
		if out.nodes[root.Node()].kind == kindMaj {
			for _, f := range out.nodes[root.Node()].fanin {
				add(f.Node())
			}
		}
		return total
	}
	return m.rebuildWith(func(out *MIG, oldIdx int, a, b, c Signal) Signal {
		evalAct := func(c *candidate) float64 {
			cp := out.checkpoint()
			s := out.buildCand(nil, c)
			c.added = len(out.nodes) - cp
			act := localActivity(out, cp, s)
			out.rollback(cp)
			probs = probs[:len(out.nodes)]
			return act
		}
		def := candidate{shape: shapeMaj, sig: [5]Signal{a, b, c}}
		defAct := evalAct(&def)
		best, bestAct := def, defAct
		// The cone position of each relevance permutation, as an old fanin
		// index (relevanceCandidates order: cone is c, c, b, b, a, a).
		coneOldIdx := [6]int{2, 2, 1, 1, 0, 0}
		oldF := m.nodes[oldIdx].fanin
		for pi, perm := range relevanceCandidates(a, b, c) {
			x, y, z := perm[0], perm[1], perm[2]
			if !out.coneContains(z, x, 3) {
				continue
			}
			// One extra created node is allowed when the replaced cone is
			// single-fanout in the old graph (it dies after the exchange).
			allow := 0
			oldCone := oldF[coneOldIdx[pi]]
			if m.nodes[oldCone.Node()].kind == kindMaj && refs[oldCone.Node()] == 1 {
				allow = 1
			}
			cand := candidate{shape: shapeRelevance, sig: [5]Signal{x, y, z}, window: 3}
			act := evalAct(&cand)
			if cand.added <= def.added+allow && act < bestAct {
				best, bestAct = cand, act
			}
		}
		s := out.buildCand(nil, &best)
		extend(out)
		return s
	})
}
