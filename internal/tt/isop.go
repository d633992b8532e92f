package tt

import "strings"

// Cube is a product term over the variables of a truth table. Bit i of Mask
// means variable i appears in the cube; bit i of Polarity gives its phase
// (1 = positive literal). Polarity bits outside Mask must be zero.
type Cube struct {
	Mask     uint32
	Polarity uint32
}

// NumLits returns the number of literals in the cube.
func (c Cube) NumLits() int {
	n := 0
	for m := c.Mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// HasVar reports whether variable i appears in the cube.
func (c Cube) HasVar(i int) bool { return c.Mask&(1<<uint(i)) != 0 }

// VarPhase reports the phase of variable i (true = positive). Only
// meaningful when HasVar(i).
func (c Cube) VarPhase(i int) bool { return c.Polarity&(1<<uint(i)) != 0 }

// WithLit returns the cube extended with a literal of variable i.
func (c Cube) WithLit(i int, positive bool) Cube {
	c.Mask |= 1 << uint(i)
	if positive {
		c.Polarity |= 1 << uint(i)
	} else {
		c.Polarity &^= 1 << uint(i)
	}
	return c
}

// TT returns the truth table of the cube over n variables. The empty cube is
// the constant-1 function.
func (c Cube) TT(n int) TT {
	r := Const(n, true)
	for i := 0; i < n; i++ {
		if !c.HasVar(i) {
			continue
		}
		v := Var(n, i)
		if !c.VarPhase(i) {
			v = v.Not()
		}
		r = r.And(v)
	}
	return r
}

// PLA renders the cube in PLA style over n variables, e.g. "1-0".
func (c Cube) PLA(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		switch {
		case !c.HasVar(i):
			sb.WriteByte('-')
		case c.VarPhase(i):
			sb.WriteByte('1')
		default:
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ISOP computes an irredundant sum-of-products cover of the incompletely
// specified function with onset on and care set (onset ∪ offset complement
// handled by caller) given as [on, dc]: the cover covers all of on and
// nothing outside on ∪ dc. It implements the Minato–Morreale recursive
// procedure on truth tables.
func ISOP(on, dc TT) []Cube {
	if on.NumVars() != dc.NumVars() {
		panic("tt: ISOP arity mismatch")
	}
	cover, _ := isopRec(on, on.Or(dc), on.NumVars())
	return cover
}

// SOP computes an irredundant SOP cover of a completely specified function.
func SOP(f TT) []Cube {
	return ISOP(f, Const(f.NumVars(), false))
}

// isopRec returns a cover and its function. on must imply onUpper.
func isopRec(on, onUpper TT, numVars int) ([]Cube, TT) {
	if on.IsConst0() {
		return nil, Const(on.NumVars(), false)
	}
	if onUpper.IsConst1() {
		return []Cube{{}}, Const(on.NumVars(), true)
	}
	// Pick the top-most variable in the combined support.
	v := -1
	for i := numVars - 1; i >= 0; i-- {
		if on.DependsOn(i) || onUpper.DependsOn(i) {
			v = i
			break
		}
	}
	if v < 0 {
		// on is a constant over the remaining space; onUpper not const 1 but
		// on not const 0 means on must equal onUpper's care region: emit the
		// empty cube only if on is const1, handled above. Fall back:
		return []Cube{{}}, Const(on.NumVars(), true)
	}

	on0, on1 := on.Cofactor0(v), on.Cofactor1(v)
	up0, up1 := onUpper.Cofactor0(v), onUpper.Cofactor1(v)

	// Cubes that must contain literal v' / v.
	cover0, f0 := isopRec(on0.AndNot(up1), up0, v)
	cover1, f1 := isopRec(on1.AndNot(up0), up1, v)

	// Shared part.
	onStar := on0.AndNot(f0).Or(on1.AndNot(f1))
	coverStar, fStar := isopRec(onStar, up0.And(up1), v)

	res := fStar.Or(Var(on.NumVars(), v).Not().And(f0)).Or(Var(on.NumVars(), v).And(f1))

	out := make([]Cube, 0, len(cover0)+len(cover1)+len(coverStar))
	for _, c := range cover0 {
		out = append(out, c.WithLit(v, false))
	}
	for _, c := range cover1 {
		out = append(out, c.WithLit(v, true))
	}
	out = append(out, coverStar...)
	return out, res
}

// CoverTT returns the truth table of a cube cover over n variables.
func CoverTT(cover []Cube, n int) TT {
	r := Const(n, false)
	for _, c := range cover {
		r = r.Or(c.TT(n))
	}
	return r
}

// CoverLits returns the total number of literals in a cover.
func CoverLits(cover []Cube) int {
	n := 0
	for _, c := range cover {
		n += c.NumLits()
	}
	return n
}
