package mig

// Rewrite infrastructure. Optimization passes rebuild the MIG node by node
// in topological order, applying local transformation rules from the Ω and Ψ
// systems while the new graph is constructed. The Ω/Ψ passes price each of
// several functionally equivalent local structures by strash lookup against
// a virtual overlay and build only the cheapest; the window engine,
// cut-rewrite and the activity pass still probe by building and rolling
// back (checkpoint/rollback).

// checkpoint returns a token for rollback.
func (m *MIG) checkpoint() int { return len(m.nodes) }

// rollback removes all majority nodes created after the checkpoint,
// including their structural-hash entries. Deletion is value-guarded
// (DeleteAbove): an entry is evicted only when it maps to a node at or past
// the checkpoint, so a key that aliases a surviving node — possible if a
// caller ever mutated fanins in place — can never leave the strash without
// the survivor's entry. A dangling entry would let a later Maj call
// "resurrect" a rolled-back node index; see TestRollbackNeverResurrects.
func (m *MIG) rollback(cp int) {
	for i := len(m.nodes) - 1; i >= cp; i-- {
		if m.nodes[i].kind == kindMaj {
			f := m.nodes[i].fanin
			m.strash.DeleteAbove([3]uint32{uint32(f[0]), uint32(f[1]), uint32(f[2])}, int32(cp))
		}
	}
	m.nodes = m.nodes[:cp]
	if m.cutCache != nil {
		m.cutCache.Truncate(cp)
	}
}

// overlay lets a construction be priced without building it. The nodes it
// would add live here as virtual nodes, numbered from base exactly as Maj
// would number them, so canonical keys, Ω.M folds and levels come out as a
// real build gives them. At most max nodes (up to len(keys)) are admitted;
// one more spends the overlay, and every later lookup fails.
type overlay struct {
	base, n, max int
	spent        bool
	keys         [3][3]uint32
	level        [3]int32
}

// maj is Maj when o is nil and its lookup-only form over o otherwise, so
// one construction walk serves both building and pricing.
func (m *MIG) maj(o *overlay, a, b, c Signal) Signal {
	if o == nil {
		return m.Maj(a, b, c)
	}
	return m.peek(o, a, b, c)
}

// peek returns the signal Maj(a, b, c) would return, recording a virtual
// node in o where Maj would create one. It returns badSignal once o is
// spent.
func (m *MIG) peek(o *overlay, a, b, c Signal) Signal {
	if o.spent {
		return badSignal
	}
	a, b, c, outNeg, folded := canonMaj(a, b, c)
	if folded {
		return a
	}
	key := [3]uint32{uint32(a), uint32(b), uint32(c)}
	// A key with a virtual fanin (c is the largest) cannot be in the strash.
	if c.Node() < o.base {
		if idx, ok := m.strash.Get(key); ok {
			return MakeSignal(int(idx), outNeg)
		}
	}
	for i := 0; i < o.n; i++ {
		if o.keys[i] == key {
			return MakeSignal(o.base+i, outNeg)
		}
	}
	if o.n == o.max {
		o.spent = true
		return badSignal
	}
	o.keys[o.n] = key
	o.level[o.n] = max(m.levelIn(o, a), m.levelIn(o, b), m.levelIn(o, c)) + 1
	o.n++
	return MakeSignal(o.base+o.n-1, outNeg)
}

// levelIn is the level of s, which may be a virtual node of o.
func (m *MIG) levelIn(o *overlay, s Signal) int32 {
	if v := s.Node() - o.base; v >= 0 {
		return o.level[v]
	}
	return m.nodes[s.Node()].level
}

// rebuildFunc constructs (in out) the replacement for the old node oldIdx
// whose fanins have been mapped to a, b, c.
type rebuildFunc func(out *MIG, oldIdx int, a, b, c Signal) Signal

// rebuildWith reconstructs the MIG through f. Dead nodes are skipped, so
// every rebuild is also a cleanup. The remap and liveness scratch comes from
// the shared slabs, so a rebuild allocates only the output graph itself.
func (m *MIG) rebuildWith(f rebuildFunc) *MIG {
	out := New(m.Name)
	out.strash.Reserve(len(m.nodes))
	rp := takeSignals(len(m.nodes), 0)
	remap := *rp
	defer releaseSignals(rp)
	lp := takeBools(len(m.nodes))
	live := m.liveInto(*lp)
	defer releaseBools(lp)
	for idx, in := range m.inputs {
		remap[in] = out.AddInput(m.names[idx])
	}
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !live[i] || nd.kind != kindMaj {
			continue
		}
		a := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		b := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		c := remap[nd.fanin[2].Node()].NotIf(nd.fanin[2].Neg())
		remap[i] = f(out, i, a, b, c)
	}
	for _, o := range m.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out
}

// reverseLevels returns, per node, the longest path (in majority levels)
// from the node to any primary output it feeds. Dead nodes get -1.
func (m *MIG) reverseLevels() []int {
	rev := make([]int, len(m.nodes))
	for i := range rev {
		rev[i] = -1
	}
	for _, o := range m.Outputs {
		rev[o.Sig.Node()] = 0
	}
	for i := len(m.nodes) - 1; i >= 0; i-- {
		if rev[i] < 0 || m.nodes[i].kind != kindMaj {
			continue
		}
		for _, f := range m.nodes[i].fanin {
			if r := rev[i] + 1; r > rev[f.Node()] {
				rev[f.Node()] = r
			}
		}
	}
	return rev
}

// criticalMask marks nodes on a longest input-to-output path.
func (m *MIG) criticalMask() []bool {
	depth := m.Depth()
	rev := m.reverseLevels()
	crit := make([]bool, len(m.nodes))
	for i := range m.nodes {
		if rev[i] >= 0 && int(m.nodes[i].level)+rev[i] >= depth {
			crit[i] = true
		}
	}
	return crit
}

// replaceInCone rebuilds the cone of root with occurrences of the signal
// from replaced by to, descending at most depth majority levels. The from
// signal is matched in both polarities (from' is replaced by to'). Partial
// replacement is sound for both Ψ.R and Ψ.S: on the inputs where the rules
// make the replacement valid, from and to carry the same value, so replacing
// any subset of occurrences preserves the function (see the tests).
//
// The rebuilt cone lives in the same MIG (self-rebuild), relying on
// structural hashing for sharing. An epoch-stamped dense memo (the MIG's
// scratch) keeps the traversal linear in the cone size without allocating;
// memoization across different residual depths can only cause fewer
// occurrences to be replaced, which remains sound. With a non-nil o the
// walk only prices the rebuild (see overlay) and stops at the first node
// past o's budget; the result is then meaningless and o is spent.
func (m *MIG) replaceInCone(o *overlay, root, from, to Signal, depth int) Signal {
	return m.replaceRec(o, root, from, to, depth, m.scr.begin(len(m.nodes)))
}

func (m *MIG) replaceRec(o *overlay, root, from, to Signal, depth int, memo *scratch) Signal {
	if o != nil && o.spent {
		return badSignal
	}
	if root == from {
		return to
	}
	if root == from.Not() {
		return to.Not()
	}
	if depth == 0 {
		return root
	}
	// Replacement commutes with complementation (Ω.I), so memoize on the
	// positive polarity only.
	pos := MakeSignal(root.Node(), false)
	if r, ok := memo.get(root.Node()); ok {
		return r.NotIf(root.Neg())
	}
	a, b, c, ok := m.majView(pos)
	if !ok {
		return root
	}
	na := m.replaceRec(o, a, from, to, depth-1, memo)
	nb := m.replaceRec(o, b, from, to, depth-1, memo)
	nc := m.replaceRec(o, c, from, to, depth-1, memo)
	var res Signal
	if na == a && nb == b && nc == c {
		res = pos
	} else {
		res = m.maj(o, na, nb, nc)
	}
	memo.put(root.Node(), res)
	return res.NotIf(root.Neg())
}

// coneContains reports whether the node of target appears in the transitive
// fanin of root within the given majority depth.
func (m *MIG) coneContains(root, target Signal, depth int) bool {
	seen := m.scr.begin(len(m.nodes))
	var rec func(s Signal, d int) bool
	rec = func(s Signal, d int) bool {
		if s.Node() == target.Node() {
			return true
		}
		if d == 0 || seen.seen(s.Node()) {
			return false
		}
		seen.mark(s.Node())
		a, b, c, ok := m.majView(s)
		if !ok {
			return false
		}
		return rec(a, d-1) || rec(b, d-1) || rec(c, d-1)
	}
	return rec(root, depth)
}

// Relevance applies Ψ.R at a node being built: in M(x, y, z), z is relevant
// only when x = y', so x may be replaced by y' (and y by x') inside z's
// cone. It returns the best construction found, preferring (in order) fewer
// created nodes, then lower level.
func relevanceCandidates(x, y, z Signal) [][3]Signal {
	// Each candidate is (keepA, keepB, coneRoot) with replacement
	// from=keepA, to=keepB.Not() applied inside coneRoot.
	return [][3]Signal{
		{x, y, z},
		{y, x, z},
		{x, z, y},
		{z, x, y},
		{y, z, x},
		{z, y, x},
	}
}

// SubstituteVar applies the substitution rule Ψ.S to signal root:
//
//	k = M(v, M(v', k_{v/u}, u), M(v', k_{v/u'}, u'))
//
// replacing variable v by u (and u') in the cone of root, bounded by depth.
// The result is functionally equal to root for any choice of u and v.
func (m *MIG) SubstituteVar(root, v, u Signal, depth int) Signal {
	kU := m.replaceInCone(nil, root, v, u, depth)
	kUn := m.replaceInCone(nil, root, v, u.Not(), depth)
	left := m.Maj(v.Not(), kU, u)
	right := m.Maj(v.Not(), kUn, u.Not())
	return m.Maj(v, left, right)
}
