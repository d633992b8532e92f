package aig

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cut"
	"repro/internal/netlist"
	"repro/internal/opt"
	"repro/internal/tt"
)

func collapse(t *testing.T, a *AIG) []tt.TT {
	t.Helper()
	n := a.NumInputs()
	if n > tt.MaxVars {
		t.Fatalf("collapse: %d inputs", n)
	}
	words := 1
	if n > 6 {
		words = 1 << uint(n-6)
	}
	outs := make([][]uint64, a.NumOutputs())
	for i := range outs {
		outs[i] = make([]uint64, words)
	}
	ins := make([]uint64, n)
	masks := []uint64{
		0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
	}
	for w := 0; w < words; w++ {
		for i := 0; i < n; i++ {
			if i < 6 {
				ins[i] = masks[i]
			} else if w&(1<<uint(i-6)) != 0 {
				ins[i] = ^uint64(0)
			} else {
				ins[i] = 0
			}
		}
		ow := a.OutputWords(ins)
		for i := range ow {
			outs[i][w] = ow[i]
		}
	}
	res := make([]tt.TT, len(outs))
	for i := range outs {
		res[i] = tt.FromWords(n, outs[i])
	}
	return res
}

func checkEquiv(t *testing.T, a, b *AIG, context string) {
	t.Helper()
	ta := collapse(t, a)
	tb := collapse(t, b)
	if len(ta) != len(tb) {
		t.Fatalf("%s: output counts differ", context)
	}
	for i := range ta {
		if !ta[i].Equal(tb[i]) {
			t.Fatalf("%s: output %d differs", context, i)
		}
	}
}

func randomAIG(r *rand.Rand, ni, ng int) *AIG {
	a := New("rand")
	sigs := []Signal{Const0}
	for i := 0; i < ni; i++ {
		sigs = append(sigs, a.AddInput("x"))
	}
	for g := 0; g < ng; g++ {
		pick := func() Signal {
			s := sigs[r.Intn(len(sigs))]
			if r.Intn(2) == 0 {
				s = s.Not()
			}
			return s
		}
		sigs = append(sigs, a.And(pick(), pick()))
	}
	for o := 0; o < 3 && o < len(sigs); o++ {
		a.AddOutput("o", sigs[len(sigs)-1-o])
	}
	return a
}

func TestAndTrivialRules(t *testing.T) {
	a := New("t")
	x := a.AddInput("x")
	y := a.AddInput("y")
	if a.And(x, x) != x {
		t.Error("x·x != x")
	}
	if a.And(x, x.Not()) != Const0 {
		t.Error("x·x' != 0")
	}
	if a.And(x, Const0) != Const0 {
		t.Error("x·0 != 0")
	}
	if a.And(x, Const1) != x {
		t.Error("x·1 != x")
	}
	if a.And(x, y) != a.And(y, x) {
		t.Error("strash not commutative")
	}
}

func TestBuildersSemantics(t *testing.T) {
	a := New("t")
	x := a.AddInput("x")
	y := a.AddInput("y")
	s := a.AddInput("s")
	a.AddOutput("or", a.Or(x, y))
	a.AddOutput("xor", a.Xor(x, y))
	a.AddOutput("mux", a.Mux(s, x, y))
	a.AddOutput("maj", a.Maj(x, y, s))
	tts := collapse(t, a)
	vx, vy, vs := tt.Var(3, 0), tt.Var(3, 1), tt.Var(3, 2)
	if !tts[0].Equal(vx.Or(vy)) {
		t.Error("Or wrong")
	}
	if !tts[1].Equal(vx.Xor(vy)) {
		t.Error("Xor wrong")
	}
	if !tts[2].Equal(tt.Mux(vs, vx, vy)) {
		t.Error("Mux wrong")
	}
	if !tts[3].Equal(tt.Maj3(vx, vy, vs)) {
		t.Error("Maj wrong")
	}
}

func TestCleanup(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := randomAIG(r, 5, 40)
		c := a.Cleanup()
		checkEquiv(t, a, c, "Cleanup")
		if c.Size() > a.Size() {
			t.Error("cleanup grew size")
		}
	}
}

func TestBalanceEquivalenceAndDepth(t *testing.T) {
	// A chain of ANDs must balance to logarithmic depth.
	a := New("chain")
	acc := a.AddInput("x0")
	for i := 1; i < 16; i++ {
		acc = a.And(acc, a.AddInput("x"))
	}
	a.AddOutput("o", acc)
	if a.Depth() != 15 {
		t.Fatalf("chain depth = %d", a.Depth())
	}
	b := a.Balance()
	checkEquiv(t, a, b, "Balance")
	if b.Depth() != 4 {
		t.Errorf("balanced depth = %d, want 4", b.Depth())
	}
	if b.Size() != a.Size() {
		t.Errorf("balance changed size %d -> %d", a.Size(), b.Size())
	}
}

func TestBalanceRandomEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		a := randomAIG(r, 6, 50)
		b := a.Balance()
		checkEquiv(t, a, b, "Balance")
		if b.Depth() > a.Depth() {
			t.Errorf("balance increased depth %d -> %d", a.Depth(), b.Depth())
		}
	}
}

func TestCutEnumeration(t *testing.T) {
	a := New("t")
	x := a.AddInput("x")
	y := a.AddInput("y")
	z := a.AddInput("z")
	g1 := a.And(x, y)
	g2 := a.And(g1, z)
	a.AddOutput("o", g2)
	cuts := a.EnumerateCuts(4, 8)
	// g2 must have a cut {x, y, z}.
	found := false
	for _, c := range cuts[g2.Node()] {
		if len(c.Leaves) == 3 {
			found = true
			f := a.CutFunction(g2.Node(), c)
			want := tt.Var(3, 0).And(tt.Var(3, 1)).And(tt.Var(3, 2))
			if !f.Equal(want) {
				t.Error("cut function wrong")
			}
		}
	}
	if !found {
		t.Error("3-leaf cut not found")
	}
}

func TestCutDominance(t *testing.T) {
	a := Cut{Leaves: []int{1, 2}}
	b := Cut{Leaves: []int{1, 2, 3}}
	if !cut.Dominates(a, b) {
		t.Error("subset must dominate")
	}
	if cut.Dominates(b, a) {
		t.Error("superset must not dominate")
	}
	m, ok := cut.Merge(4, a, b)
	if !ok || len(m.Leaves) != 3 {
		t.Error("merge wrong")
	}
	if _, ok := cut.Merge(4, Cut{Leaves: []int{1, 2, 3}}, Cut{Leaves: []int{4, 5}}); ok {
		t.Error("merge should overflow k=4")
	}
}

func TestSynthesizeTT(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(4)
		words := 1
		w := make([]uint64, words)
		w[0] = r.Uint64()
		f := tt.FromWords(n, w)
		a := New("t")
		leaves := make([]Signal, n)
		for i := range leaves {
			leaves[i] = a.AddInput("x")
		}
		s := SynthesizeTT(a, f, leaves)
		a.AddOutput("o", s)
		got := collapse(t, a)[0]
		if !got.Equal(f) {
			t.Fatalf("trial %d: synthesized function wrong", trial)
		}
	}
}

func TestRewriteEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		a := randomAIG(r, 6, 60)
		b := a.Rewrite().Cleanup()
		checkEquiv(t, a, b, "Rewrite")
		if b.Size() > a.Size() {
			t.Errorf("trial %d: rewrite grew size %d -> %d", trial, a.Size(), b.Size())
		}
	}
}

func TestRefactorEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		a := randomAIG(r, 7, 60)
		b := a.Refactor().Cleanup()
		checkEquiv(t, a, b, "Refactor")
	}
}

// runCanned runs a canned pipeline; canned pipelines carry no checker, so
// any error fails the test.
func runCanned(tb testing.TB, p *opt.Pipeline[*AIG], a *AIG) *AIG {
	tb.Helper()
	res, _, err := p.Run(a)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestResyn2Equivalence(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 8; trial++ {
		a := randomAIG(r, 6, 80)
		b := runCanned(t, Resyn2Pipeline(2), a)
		checkEquiv(t, a, b, "Resyn2")
		if b.Size() > a.Size() {
			t.Errorf("resyn2 grew size %d -> %d", a.Size(), b.Size())
		}
	}
}

func TestResyn2ReducesRedundancy(t *testing.T) {
	// Build a deliberately redundant structure: f = (x·y)·(x·(y·z)) = x·y·z.
	a := New("red")
	x := a.AddInput("x")
	y := a.AddInput("y")
	z := a.AddInput("z")
	f := a.And(a.And(x, y), a.And(x, a.And(y, z)))
	a.AddOutput("o", f)
	b := runCanned(t, Resyn2Pipeline(2), a)
	checkEquiv(t, a, b, "redundant")
	if b.Size() > 2 {
		t.Errorf("x·y·z synthesized with %d nodes, want 2", b.Size())
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	n := netlist.New("fa")
	x := n.AddInput("a")
	y := n.AddInput("b")
	ci := n.AddInput("ci")
	n.AddOutput("sum", n.AddGate(netlist.Xor, x, y, ci))
	n.AddOutput("cout", n.AddGate(netlist.Maj, x, y, ci))
	a := FromNetwork(n)
	back := a.ToNetwork()
	t1, err := n.CollapseTT()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := back.CollapseTT()
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1 {
		if !t1[i].Equal(t2[i]) {
			t.Fatalf("round trip changed output %d", i)
		}
	}
}

func TestActivityAndProbability(t *testing.T) {
	a := New("t")
	x := a.AddInput("x")
	y := a.AddInput("y")
	g := a.And(x, y)
	a.AddOutput("o", g)
	p := a.Probabilities(nil)
	if p[g.Node()] != 0.25 {
		t.Errorf("p = %v, want 0.25", p[g.Node()])
	}
	if act := a.Activity(nil); act != 0.375 {
		t.Errorf("activity = %v, want 0.375", act)
	}
}

func TestDepthLevels(t *testing.T) {
	a := New("t")
	x := a.AddInput("x")
	y := a.AddInput("y")
	g1 := a.And(x, y)
	g2 := a.And(g1, x.Not())
	a.AddOutput("o", g2)
	if a.Level(g1) != 1 || a.Level(g2) != 2 || a.Depth() != 2 {
		t.Error("levels wrong")
	}
}

func TestAdderSizeSanity(t *testing.T) {
	// 8-bit ripple adder: AIG should land near ABC's ballpark (~7-9
	// nodes/bit before optimization).
	a := New("adder")
	var xs, ys []Signal
	for i := 0; i < 8; i++ {
		xs = append(xs, a.AddInput("x"))
	}
	for i := 0; i < 8; i++ {
		ys = append(ys, a.AddInput("y"))
	}
	c := Const0
	for i := 0; i < 8; i++ {
		s := a.Xor(a.Xor(xs[i], ys[i]), c)
		c = a.Maj(xs[i], ys[i], c)
		a.AddOutput("s", s)
	}
	a.AddOutput("cout", c)
	size := a.Size()
	if size < 40 || size > 120 {
		t.Errorf("8-bit adder size = %d, expected 40..120", size)
	}
	// Simulate one addition: 3 + 5 = 8.
	ins := make([]uint64, 16)
	setVal := func(base int, v uint64) {
		for i := 0; i < 8; i++ {
			if v&(1<<uint(i)) != 0 {
				ins[base+i] = ^uint64(0)
			}
		}
	}
	setVal(0, 3)
	setVal(8, 5)
	out := a.OutputWords(ins)
	var got uint64
	for i := 0; i < 8; i++ {
		if out[i]&1 != 0 {
			got |= 1 << uint(i)
		}
	}
	if got != 8 {
		t.Errorf("3+5 = %d", got)
	}
}

func TestQuickStrashInvariants(t *testing.T) {
	// Strashing invariants on random build sequences: the same AND is never
	// created twice, sizes match live-node counts, and levels are
	// consistent with fanins.
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAIG(r, 5, 40)
		seen := map[[2]Signal]bool{}
		live := a.LiveMask()
		for i := 0; i < a.NumNodes(); i++ {
			if !a.IsAnd(MakeSignal(i, false)) {
				continue
			}
			f := a.Fanins(i)
			if seen[f] {
				return false // duplicate structure escaped strashing
			}
			seen[f] = true
			l := a.Level(MakeSignal(i, false))
			l0 := a.Level(f[0])
			l1 := a.Level(f[1])
			if l != max2(l0, l1)+1 {
				return false
			}
		}
		_ = live
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestQuickBalanceRewriteChain(t *testing.T) {
	// Composition property: any sequence of optimization passes preserves
	// the function of random AIGs.
	cfg := &quick.Config{MaxCount: 20}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAIG(r, 6, 40)
		b := a.Balance().Rewrite().Cleanup().Balance().Refactor().Cleanup()
		ta := collapseQuiet(a)
		tb := collapseQuiet(b)
		for i := range ta {
			if !ta[i].Equal(tb[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// collapseQuiet is collapse without a testing.T (for quick properties).
func collapseQuiet(a *AIG) []tt.TT {
	n := a.NumInputs()
	words := 1
	if n > 6 {
		words = 1 << uint(n-6)
	}
	masks := []uint64{
		0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
	}
	outs := make([][]uint64, a.NumOutputs())
	for i := range outs {
		outs[i] = make([]uint64, words)
	}
	ins := make([]uint64, n)
	for w := 0; w < words; w++ {
		for i := 0; i < n; i++ {
			if i < 6 {
				ins[i] = masks[i]
			} else if w&(1<<uint(i-6)) != 0 {
				ins[i] = ^uint64(0)
			} else {
				ins[i] = 0
			}
		}
		ow := a.OutputWords(ins)
		for i := range ow {
			outs[i][w] = ow[i]
		}
	}
	res := make([]tt.TT, len(outs))
	for i := range outs {
		res[i] = tt.FromWords(n, outs[i])
	}
	return res
}
