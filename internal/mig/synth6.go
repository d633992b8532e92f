package mig

// Functional resynthesis of functions of up to six variables into majority
// logic. This extends the paper's purely algebraic Ω/Ψ optimization with
// the cut-rewriting style its follow-on work developed: small cut functions
// are re-synthesized from their truth tables and the cheaper structure
// wins. synthW builds an MIG for a function over leaf signals:
//
//  1. constants and literals directly;
//  2. single majority/AND/OR/XOR shapes of literals by exhaustive matching
//     (all variable triples/pairs in all polarities);
//  3. top-decomposition f = M(x, g, h) when cofactor analysis finds literal
//     top candidates;
//  4. otherwise Shannon expansion through the majority form
//     f = M(M(x', f1, 1), M(x, f0, 1), 0) on the most binate variable.
//
// A function of at most six variables is a single uint64 truth table, so
// every cofactor, projection and comparison is pure word arithmetic and a
// synthesis probe performs no heap allocation beyond the nodes it creates.
// Synthesized sub-functions are memoized per call in either polarity.

import "math/bits"

// varMask6[i] is the repeating 64-bit pattern of variable i (tt.varMasks).
var varMask6 = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// wordMask returns the valid-bit mask of a table over n <= 6 variables.
func wordMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << n)) - 1
}

// varWord is tt.Var(n, i) as a word.
func varWord(n, i int) uint64 { return varMask6[i] & wordMask(n) }

// cof0w / cof1w are the word cofactors with respect to variable i.
func cof0w(w uint64, i int) uint64 {
	lo := w &^ varMask6[i]
	return lo | lo<<(1<<uint(i))
}

func cof1w(w uint64, i int) uint64 {
	hi := w & varMask6[i]
	return hi | hi>>(1<<uint(i))
}

// maj3w is the bitwise three-input majority.
func maj3w(a, b, c uint64) uint64 { return a&b | a&c | b&c }

// flipw complements variable i in w (swaps the two cofactor halves).
func flipw(w uint64, i int) uint64 {
	s := uint(1) << uint(i)
	return (w&varMask6[i])>>s | (w&^varMask6[i])<<s
}

// synthW builds the word-encoded function w over n <= 6 leaf signals.
func (m *MIG) synthW(w uint64, n int, leaves []Signal) Signal {
	if n > 6 || n != len(leaves) {
		panic("mig: synthesis takes at most six variables, one leaf per variable")
	}
	m.synthMemo = m.synthMemo[:0]
	return m.synthRec6(w, n, leaves)
}

// synthEntry is one memoized sub-function of a synthW call.
type synthEntry struct {
	w uint64
	s Signal
}

// memoize records s as the implementation of w and returns it.
func (m *MIG) memoize(w uint64, s Signal) Signal {
	m.synthMemo = append(m.synthMemo, synthEntry{w, s})
	return s
}

func (m *MIG) synthRec6(w uint64, n int, leaves []Signal) Signal {
	mask := wordMask(n)
	w &= mask
	if w == 0 {
		return Const0
	}
	if w == mask {
		return Const1
	}
	// The recursion is at most six variables deep, so a call memoizes few
	// sub-functions and a linear scan beats hashing.
	for _, e := range m.synthMemo {
		if e.w == w {
			return e.s
		}
	}
	for _, e := range m.synthMemo {
		if e.w == ^w&mask {
			return e.s.Not()
		}
	}

	// Support.
	var sup [6]int
	ns := 0
	for i := 0; i < n; i++ {
		if cof0w(w, i)&mask != cof1w(w, i)&mask {
			sup[ns] = i
			ns++
		}
	}
	support := sup[:ns]

	// Literal?
	if ns == 1 {
		v := support[0]
		s := leaves[v]
		if w == varWord(n, v) {
			return m.memoize(w, s)
		}
		return m.memoize(w, s.Not())
	}

	// Two-literal AND/OR/XOR shapes.
	if ns == 2 {
		a, b := support[0], support[1]
		wa, wb := varWord(n, a), varWord(n, b)
		for _, pa := range []bool{false, true} {
			for _, pb := range []bool{false, true} {
				la, lb := wa, wb
				if pa {
					la = ^la & mask
				}
				if pb {
					lb = ^lb & mask
				}
				switch w {
				case la & lb:
					s := m.And(leaves[a].NotIf(pa), leaves[b].NotIf(pb))
					return m.memoize(w, s)
				case la | lb:
					s := m.Or(leaves[a].NotIf(pa), leaves[b].NotIf(pb))
					return m.memoize(w, s)
				}
			}
		}
		if w == wa^wb {
			s := m.Xor(leaves[a], leaves[b])
			return m.memoize(w, s)
		}
		if w == ^(wa^wb)&mask {
			s := m.Xor(leaves[a], leaves[b]).Not()
			return m.memoize(w, s)
		}
	}

	// Three-literal majority shapes (any polarities, incl. output).
	if ns == 3 {
		a, b, c := support[0], support[1], support[2]
		base := maj3w(varWord(n, a), varWord(n, b), varWord(n, c))
		// Variants flip a (bit 0), b (bit 1), c (bit 2) and complement the
		// output (bit 3).
		for variant := 0; variant < 16; variant++ {
			g := base
			if variant&1 != 0 {
				g = flipw(g, a)
			}
			if variant&2 != 0 {
				g = flipw(g, b)
			}
			if variant&4 != 0 {
				g = flipw(g, c)
			}
			if variant&8 != 0 {
				g = ^g & mask
			}
			if w == g {
				s := m.Maj(
					leaves[a].NotIf(variant&1 != 0),
					leaves[b].NotIf(variant&2 != 0),
					leaves[c].NotIf(variant&4 != 0),
				).NotIf(variant&8 != 0)
				return m.memoize(w, s)
			}
		}
		// Three-input parity.
		par := varWord(n, a) ^ varWord(n, b) ^ varWord(n, c)
		if w == par || w == ^par&mask {
			s := m.Xor(m.Xor(leaves[a], leaves[b]), leaves[c]).NotIf(w == ^par&mask)
			return m.memoize(w, s)
		}
	}

	// Top majority decomposition with a literal arm: f = M(x^p, g, h).
	// When f0 ⊆ f1, M(x, f1, f0) = x·(f1+f0) + f1·f0 = x·f1 + f0 =
	// ite(x, f1, f0) = f; symmetrically M(x', f0, f1) when f1 ⊆ f0.
	{
		best := -1
		for _, v := range support {
			f0, f1 := cof0w(w, v)&mask, cof1w(w, v)&mask
			if f0&^f1 == 0 || f1&^f0 == 0 {
				best = v
				break
			}
		}
		if best >= 0 {
			v := best
			f0, f1 := cof0w(w, v)&mask, cof1w(w, v)&mask
			var s Signal
			if f0&^f1 == 0 {
				// f0 ⊆ f1: f = M(x, f1, f0).
				g := m.synthRec6(f1, n, leaves)
				h := m.synthRec6(f0, n, leaves)
				s = m.Maj(leaves[v], g, h)
			} else {
				// f1 ⊆ f0: f = M(x', f0, f1).
				g := m.synthRec6(f0, n, leaves)
				h := m.synthRec6(f1, n, leaves)
				s = m.Maj(leaves[v].Not(), g, h)
			}
			return m.memoize(w, s)
		}
	}

	// General Shannon step on the most binate variable (the one whose
	// cofactors differ the most, to shrink both sides).
	bestV, bestScore := support[0], -1
	for _, v := range support {
		d := bits.OnesCount64((cof0w(w, v) ^ cof1w(w, v)) & mask)
		if d > bestScore {
			bestV, bestScore = v, d
		}
	}
	f0 := cof0w(w, bestV) & mask
	f1 := cof1w(w, bestV) & mask
	g1 := m.synthRec6(f1, n, leaves)
	g0 := m.synthRec6(f0, n, leaves)
	x := leaves[bestV]
	// f = (x' + f1)(x + f0) = M(M(x', f1, 1), M(x, f0, 1), 0).
	s := m.And(m.Or(x.Not(), g1), m.Or(x, g0))
	return m.memoize(w, s)
}

// wordScratch is the epoch-stamped memo of word-level cone walks.
type wordScratch struct {
	stamp []uint32
	w     []uint64
	epoch uint32
}

func (s *wordScratch) begin(n int) {
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
		s.w = append(s.w, make([]uint64, n-len(s.w))...)
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
}

// cutFuncW computes the truth table of root over at most six cut leaves as
// a single word, with zero heap allocation.
func (m *MIG) cutFuncW(root int, leaves []int32) uint64 {
	n := len(leaves)
	if n > 6 {
		panic("mig: cutFuncW needs at most six leaves")
	}
	mask := wordMask(n)
	s := &m.wscr
	s.begin(root + 1)
	for i, l := range leaves {
		s.stamp[l] = s.epoch
		s.w[l] = varWord(n, i)
	}
	var rec func(idx int) uint64
	rec = func(idx int) uint64 {
		if s.stamp[idx] == s.epoch {
			return s.w[idx]
		}
		nd := &m.nodes[idx]
		var v uint64
		if nd.kind != kindMaj {
			// The constant node outside the cut.
			v = 0
		} else {
			get := func(sg Signal) uint64 {
				x := rec(sg.Node())
				if sg.Neg() {
					return ^x & mask
				}
				return x
			}
			v = maj3w(get(nd.fanin[0]), get(nd.fanin[1]), get(nd.fanin[2]))
		}
		s.stamp[idx] = s.epoch
		s.w[idx] = v
		return v
	}
	return rec(root) & mask
}
