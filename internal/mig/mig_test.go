package mig

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/opt"
	"repro/internal/tt"
)

// collapse computes the truth table of every output of an MIG with at most
// tt.MaxVars inputs, by exhaustive word-parallel simulation.
func collapse(t *testing.T, m *MIG) []tt.TT {
	t.Helper()
	n := m.NumInputs()
	if n > tt.MaxVars {
		t.Fatalf("collapse: %d inputs", n)
	}
	words := 1
	if n > 6 {
		words = 1 << uint(n-6)
	}
	outs := make([][]uint64, m.NumOutputs())
	for i := range outs {
		outs[i] = make([]uint64, words)
	}
	ins := make([]uint64, n)
	for w := 0; w < words; w++ {
		for i := 0; i < n; i++ {
			if i < 6 {
				ins[i] = []uint64{
					0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
					0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
				}[i]
			} else if w&(1<<uint(i-6)) != 0 {
				ins[i] = ^uint64(0)
			} else {
				ins[i] = 0
			}
		}
		ow := m.OutputWords(ins)
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

func checkEquiv(t *testing.T, a, b *MIG, context string) {
	t.Helper()
	ta := collapse(t, a)
	tb := collapse(t, b)
	if len(ta) != len(tb) {
		t.Fatalf("%s: output count %d vs %d", context, len(ta), len(tb))
	}
	for i := range ta {
		if !ta[i].Equal(tb[i]) {
			t.Fatalf("%s: output %d not equivalent: %s vs %s", context, i, ta[i].Hex(), tb[i].Hex())
		}
	}
}

func TestStrashTrivialRules(t *testing.T) {
	m := New("t")
	x := m.AddInput("x")
	y := m.AddInput("y")
	z := m.AddInput("z")
	// Ω.M
	if m.Maj(x, x, z) != x {
		t.Error("M(x,x,z) != x")
	}
	if m.Maj(x, x.Not(), z) != z {
		t.Error("M(x,x',z) != z")
	}
	if m.Maj(x, z, x) != x {
		t.Error("M(x,z,x) != x")
	}
	if m.Maj(z, x, x.Not()) != z {
		t.Error("M(z,x,x') != z")
	}
	// Constants are complementary.
	if m.Maj(Const0, Const1, y) != y {
		t.Error("M(0,1,y) != y")
	}
	_ = y
}

func TestStrashCommutativity(t *testing.T) {
	m := New("t")
	x := m.AddInput("x")
	y := m.AddInput("y")
	z := m.AddInput("z")
	a := m.Maj(x, y, z)
	perms := [][3]Signal{{x, y, z}, {x, z, y}, {y, x, z}, {y, z, x}, {z, x, y}, {z, y, x}}
	for _, p := range perms {
		if m.Maj(p[0], p[1], p[2]) != a {
			t.Errorf("commutativity: %v not strash-merged", p)
		}
	}
	if m.Size() != 0 { // no outputs yet, size counts live nodes
		t.Errorf("size = %d before outputs", m.Size())
	}
	m.AddOutput("o", a)
	if m.Size() != 1 {
		t.Errorf("size = %d, want 1", m.Size())
	}
}

func TestStrashInverterPropagation(t *testing.T) {
	// M(x', y', z) must hash to the same node as M(x, y, z') complemented.
	m := New("t")
	x := m.AddInput("x")
	y := m.AddInput("y")
	z := m.AddInput("z")
	a := m.Maj(x.Not(), y.Not(), z)
	b := m.Maj(x, y, z.Not())
	if a != b.Not() {
		t.Errorf("Ω.I canonicalization failed: %v vs %v", a, b)
	}
	// All-complemented: M(x',y',z') = M(x,y,z)'.
	c := m.Maj(x.Not(), y.Not(), z.Not())
	d := m.Maj(x, y, z)
	if c != d.Not() {
		t.Error("M(x',y',z') != M(x,y,z)'")
	}
}

func TestBuildersSemantics(t *testing.T) {
	m := New("t")
	x := m.AddInput("x")
	y := m.AddInput("y")
	s := m.AddInput("s")
	m.AddOutput("and", m.And(x, y))
	m.AddOutput("or", m.Or(x, y))
	m.AddOutput("xor", m.Xor(x, y))
	m.AddOutput("mux", m.Mux(s, x, y))
	m.AddOutput("maj", m.Maj(x, y, s))
	tts := collapse(t, m)
	vx, vy, vs := tt.Var(3, 0), tt.Var(3, 1), tt.Var(3, 2)
	if !tts[0].Equal(vx.And(vy)) {
		t.Error("And wrong")
	}
	if !tts[1].Equal(vx.Or(vy)) {
		t.Error("Or wrong")
	}
	if !tts[2].Equal(vx.Xor(vy)) {
		t.Error("Xor wrong")
	}
	if !tts[3].Equal(tt.Mux(vs, vx, vy)) {
		t.Error("Mux wrong")
	}
	if !tts[4].Equal(tt.Maj3(vx, vy, vs)) {
		t.Error("Maj wrong")
	}
}

// randomMIG builds a random MIG over ni inputs with ~ng nodes.
func randomMIG(r *rand.Rand, ni, ng int) *MIG {
	m := New("rand")
	sigs := []Signal{Const0}
	for i := 0; i < ni; i++ {
		sigs = append(sigs, m.AddInput("x"))
	}
	for g := 0; g < ng; g++ {
		pick := func() Signal {
			s := sigs[r.Intn(len(sigs))]
			if r.Intn(2) == 0 {
				s = s.Not()
			}
			return s
		}
		s := m.Maj(pick(), pick(), pick())
		sigs = append(sigs, s)
	}
	no := 1 + r.Intn(4)
	for o := 0; o < no && o < len(sigs); o++ {
		m.AddOutput("o", sigs[len(sigs)-1-o])
	}
	return m
}

func TestCleanupPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		m := randomMIG(r, 4+r.Intn(4), 10+r.Intn(60))
		c := m.Cleanup()
		checkEquiv(t, m, c, "Cleanup")
		if c.Size() > m.Size() {
			t.Errorf("Cleanup grew size: %d -> %d", m.Size(), c.Size())
		}
	}
}

func TestCleanupDropsDeadNodes(t *testing.T) {
	m := New("t")
	x := m.AddInput("x")
	y := m.AddInput("y")
	m.Maj(x, y, Const1) // dead
	a := m.Maj(x, y, Const0)
	m.AddOutput("o", a)
	c := m.Cleanup()
	if c.NumNodes() != 4 { // const + 2 PIs + 1 maj
		t.Errorf("NumNodes = %d, want 4", c.NumNodes())
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	n := netlist.New("fa")
	a := n.AddInput("a")
	b := n.AddInput("b")
	ci := n.AddInput("ci")
	n.AddOutput("sum", n.AddGate(netlist.Xor, a, b, ci))
	n.AddOutput("cout", n.AddGate(netlist.Maj, a, b, ci))
	m := FromNetwork(n)
	back := m.ToNetwork()

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

func TestFromNetworkAllOps(t *testing.T) {
	n := netlist.New("ops")
	var in []netlist.Signal
	for i := 0; i < 4; i++ {
		in = append(in, n.AddInput("i"))
	}
	n.AddOutput("and3", n.AddGate(netlist.And, in[0], in[1], in[2]))
	n.AddOutput("or4", n.AddGate(netlist.Or, in[0], in[1], in[2], in[3]))
	n.AddOutput("nand", n.AddGate(netlist.Nand, in[0], in[1]))
	n.AddOutput("nor", n.AddGate(netlist.Nor, in[2], in[3]))
	n.AddOutput("xnor", n.AddGate(netlist.Xnor, in[0], in[3]))
	n.AddOutput("mux", n.AddGate(netlist.Mux, in[0], in[1], in[2]))
	n.AddOutput("not", n.AddGate(netlist.Not, in[1]))
	n.AddOutput("buf", n.AddGate(netlist.Buf, in[2]))
	m := FromNetwork(n)
	t1, err := n.CollapseTT()
	if err != nil {
		t.Fatal(err)
	}
	t2 := collapse(t, m)
	for i := range t1 {
		if !t1[i].Equal(t2[i]) {
			t.Fatalf("op conversion wrong for output %d (%s)", i, n.Outputs[i].Name)
		}
	}
}

func TestLevelsAndDepth(t *testing.T) {
	m := New("t")
	x := m.AddInput("x")
	y := m.AddInput("y")
	z := m.AddInput("z")
	a := m.Maj(x, y, z)
	b := m.Maj(a, y, z.Not())
	c := m.Maj(b.Not(), x, Const1)
	m.AddOutput("o", c)
	if m.Level(a) != 1 || m.Level(b) != 2 || m.Level(c) != 3 {
		t.Error("levels wrong")
	}
	if m.Depth() != 3 {
		t.Errorf("depth = %d, want 3", m.Depth())
	}
}

func TestProbabilities(t *testing.T) {
	m := New("t")
	x := m.AddInput("x")
	y := m.AddInput("y")
	and := m.And(x, y)
	or := m.Or(x, y)
	m.AddOutput("a", and)
	m.AddOutput("o", or)
	p := m.Probabilities(nil)
	if got := p[and.Node()]; got != 0.25 {
		t.Errorf("p(and) = %v, want 0.25", got)
	}
	if got := p[or.Node()]; got != 0.75 {
		t.Errorf("p(or) = %v, want 0.75", got)
	}
	// Activity: two nodes each 2·p·(1−p) = 2·0.25·0.75 = 0.375.
	if got := m.Activity(nil); got != 0.75 {
		t.Errorf("activity = %v, want 0.75", got)
	}
	// Custom input probabilities.
	p2 := m.Probabilities([]float64{1, 0.5})
	if got := p2[and.Node()]; got != 0.5 {
		t.Errorf("p(and | px=1) = %v, want 0.5", got)
	}
}

func TestProbabilityMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m := randomMIG(r, 5, 25)
		probs := m.Probabilities(nil)
		tts := collapse(t, m)
		_ = tts
		// Exhaustive probability of each output node.
		for _, o := range m.Outputs {
			var f tt.TT
			f = collapseSignal(m, o.Sig)
			want := f.Prob()
			got := probs[o.Sig.Node()]
			if o.Sig.Neg() {
				got = 1 - got
			}
			// The independence assumption is exact here because collapse
			// uses uniform exhaustive patterns and probability propagation
			// is exact only for trees; allow reconvergence slack.
			if diff := got - want; diff > 0.5 || diff < -0.5 {
				t.Errorf("probability wildly off: got %v want %v", got, want)
			}
		}
	}
}

// collapseSignal computes the exact truth table of one signal.
func collapseSignal(m *MIG, s Signal) tt.TT {
	n := m.NumInputs()
	sub := New("sub")
	for i := 0; i < n; i++ {
		sub.AddInput(m.InputName(i))
	}
	_ = sub
	// Reuse full collapse on a copy with a single output.
	c := m.Clone()
	c.Outputs = []Output{{Name: "f", Sig: s}}
	words := 1
	if n > 6 {
		words = 1 << uint(n-6)
	}
	out := make([]uint64, words)
	ins := make([]uint64, n)
	for w := 0; w < words; w++ {
		for i := 0; i < n; i++ {
			if i < 6 {
				ins[i] = []uint64{
					0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
					0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
				}[i]
			} else if w&(1<<uint(i-6)) != 0 {
				ins[i] = ^uint64(0)
			} else {
				ins[i] = 0
			}
		}
		out[w] = c.OutputWords(ins)[0]
	}
	return tt.FromWords(n, out)
}

func TestReplaceInConeSoundness(t *testing.T) {
	// Ψ.R: M(x, y, z) = M(x, y, z_{x/y'}) must hold for random cones.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		m := randomMIG(r, 5, 30)
		// Pick random x, y from inputs and z from nodes.
		x := m.Input(r.Intn(5)).NotIf(r.Intn(2) == 0)
		y := m.Input(r.Intn(5)).NotIf(r.Intn(2) == 0)
		if x.Node() == y.Node() {
			continue
		}
		z := MakeSignal(1+r.Intn(m.NumNodes()-1), r.Intn(2) == 0)
		orig := m.Maj(x, y, z)
		nz := m.replaceInCone(nil, z, x, y.Not(), 2+r.Intn(4))
		repl := m.Maj(x, y, nz)
		m.Outputs = nil
		m.AddOutput("a", orig)
		m.AddOutput("b", repl)
		tts := collapse(t, m)
		if !tts[0].Equal(tts[1]) {
			t.Fatalf("trial %d: relevance replacement changed function", trial)
		}
	}
}

func TestSubstituteVarSoundness(t *testing.T) {
	// Ψ.S must preserve the function for arbitrary u, v.
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		m := randomMIG(r, 5, 30)
		root := MakeSignal(1+r.Intn(m.NumNodes()-1), r.Intn(2) == 0)
		v := m.Input(r.Intn(5)).NotIf(r.Intn(2) == 0)
		u := m.Input(r.Intn(5)).NotIf(r.Intn(2) == 0)
		sub := m.SubstituteVar(root, v, u, 8)
		m.Outputs = nil
		m.AddOutput("a", root)
		m.AddOutput("b", sub)
		tts := collapse(t, m)
		if !tts[0].Equal(tts[1]) {
			t.Fatalf("trial %d: substitution changed function", trial)
		}
	}
}

func TestEliminatePassEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		m := randomMIG(r, 4+r.Intn(4), 20+r.Intn(80))
		e := m.EliminatePass(3)
		checkEquiv(t, m, e, "EliminatePass")
		if e.Size() > m.Size() {
			t.Errorf("trial %d: eliminate grew size %d -> %d", trial, m.Size(), e.Size())
		}
	}
}

func TestPushUpPassEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		m := randomMIG(r, 4+r.Intn(4), 20+r.Intn(80))
		p := m.PushUpPass(false)
		checkEquiv(t, m, p, "PushUpPass")
		if p.Depth() > m.Depth() {
			t.Errorf("trial %d: push-up grew depth %d -> %d", trial, m.Depth(), p.Depth())
		}
	}
}

func TestReshapePassEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := randomMIG(r, 4+r.Intn(3), 20+r.Intn(60))
		for _, aggressive := range []bool{false, true} {
			p := m.ReshapePass(3, aggressive)
			checkEquiv(t, m, p, "ReshapePass")
		}
	}
}

func TestActivityPassEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		m := randomMIG(r, 4+r.Intn(3), 20+r.Intn(60))
		p := m.ActivityPass(nil)
		checkEquiv(t, m, p, "ActivityPass")
	}
}

func TestOptimizersEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		m := randomMIG(r, 5+r.Intn(3), 30+r.Intn(60))
		for name, p := range map[string]*opt.Pipeline[*MIG]{
			"size":     SizePipeline(2),
			"depth":    DepthPipeline(2),
			"activity": ActivityPipeline(2, nil),
			"full":     FlowPipeline(2),
		} {
			o := runCanned(t, p, m)
			checkEquiv(t, m, o, name)
		}
	}
}

func TestFig2aSizeOptimization(t *testing.T) {
	// Paper Fig. 2(a): h = M(x, M(x, z', w), M(x, y, z)) reduces to x.
	m := New("fig2a")
	x := m.AddInput("x")
	y := m.AddInput("y")
	z := m.AddInput("z")
	w := m.AddInput("w")
	h := m.Maj(x, m.Maj(x, z.Not(), w), m.Maj(x, y, z))
	m.AddOutput("h", h)
	if m.Size() != 3 {
		t.Fatalf("initial size = %d, want 3", m.Size())
	}
	o := runCanned(t, SizePipeline(4), m)
	checkEquiv(t, m, o, "fig2a")
	if o.Size() != 0 {
		t.Errorf("optimized size = %d, want 0 (h = x)", o.Size())
	}
}

func TestFig2cDepthOptimization(t *testing.T) {
	// Paper Fig. 2(c): g = x(y + uv), initial MIG depth 3, optimal depth 2.
	m := New("fig2c")
	x := m.AddInput("x")
	y := m.AddInput("y")
	u := m.AddInput("u")
	v := m.AddInput("v")
	g := m.And(x, m.Or(y, m.And(u, v)))
	m.AddOutput("g", g)
	if m.Depth() != 3 {
		t.Fatalf("initial depth = %d, want 3", m.Depth())
	}
	o := runCanned(t, DepthPipeline(4), m)
	checkEquiv(t, m, o, "fig2c")
	if o.Depth() != 2 {
		t.Errorf("optimized depth = %d, want 2", o.Depth())
	}
}

func TestFig2bXorDepth(t *testing.T) {
	// Paper Fig. 2(b): f = x ⊕ y ⊕ z from its AOIG translation (depth 4);
	// the MIG-optimal depth is 2. Depth must never increase and function
	// must be preserved; reaching 2 requires the Ψ.S reshape.
	m := New("fig2b")
	x := m.AddInput("x")
	y := m.AddInput("y")
	z := m.AddInput("z")
	f := m.Xor(m.Xor(x, y), z)
	m.AddOutput("f", f)
	d0 := m.Depth()
	o := runCanned(t, DepthPipeline(6), m)
	checkEquiv(t, m, o, "fig2b")
	if o.Depth() > d0 {
		t.Errorf("depth grew: %d -> %d", d0, o.Depth())
	}
	t.Logf("fig2b: depth %d -> %d (paper reaches 2)", d0, o.Depth())
}

func TestFig1XorMigSize(t *testing.T) {
	// Fig. 1(a): f = x⊕y⊕z as translated AOIG has 6 MIG nodes... our Xor
	// builder is already more compact; just check function and size bound.
	m := New("fig1a")
	x := m.AddInput("x")
	y := m.AddInput("y")
	z := m.AddInput("z")
	m.AddOutput("f", m.Xor(m.Xor(x, y), z))
	want := tt.Var(3, 0).Xor(tt.Var(3, 1)).Xor(tt.Var(3, 2))
	got := collapse(t, m)[0]
	if !got.Equal(want) {
		t.Fatal("xor3 function wrong")
	}
}

func TestRippleCarryDepthReduction(t *testing.T) {
	// The motivating datapath case: a ripple-carry chain of majorities
	// (the carry chain of an adder) must be flattened substantially by
	// Ω.D L→R push-up. c_{i+1} = M(a_i, b_i, c_i).
	const n = 16
	m := New("carry")
	var as, bs []Signal
	for i := 0; i < n; i++ {
		as = append(as, m.AddInput("a"))
	}
	for i := 0; i < n; i++ {
		bs = append(bs, m.AddInput("b"))
	}
	c := Const0
	for i := 0; i < n; i++ {
		c = m.Maj(as[i], bs[i], c)
	}
	m.AddOutput("cout", c)
	if m.Depth() != n {
		t.Fatalf("initial carry depth = %d, want %d", m.Depth(), n)
	}
	o := runCanned(t, DepthPipeline(8), m)
	// Equivalence via random simulation (32 inputs is too many for
	// exhaustive collapse).
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 64; trial++ {
		ins := make([]uint64, 2*n)
		for i := range ins {
			ins[i] = r.Uint64()
		}
		if m.OutputWords(ins)[0] != o.OutputWords(ins)[0] {
			t.Fatal("carry chain function changed")
		}
	}
	if o.Depth() >= n/2 {
		t.Errorf("carry chain depth only reduced to %d from %d", o.Depth(), n)
	}
	t.Logf("carry chain: depth %d -> %d, size %d -> %d", n, o.Depth(), m.Size(), o.Size())
}

func TestFanoutCounts(t *testing.T) {
	m := New("t")
	x := m.AddInput("x")
	y := m.AddInput("y")
	z := m.AddInput("z")
	a := m.Maj(x, y, z)
	b := m.Maj(a, y, Const1)
	c := m.Maj(a, b, z)
	m.AddOutput("o", c)
	refs := m.FanoutCounts()
	if refs[a.Node()] != 2 {
		t.Errorf("refs(a) = %d, want 2", refs[a.Node()])
	}
	if refs[c.Node()] != 1 {
		t.Errorf("refs(c) = %d, want 1", refs[c.Node()])
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New("t")
	x := m.AddInput("x")
	y := m.AddInput("y")
	m.AddOutput("o", m.And(x, y))
	c := m.Clone()
	c.AddOutput("p", c.Or(c.Input(0), c.Input(1)))
	if m.NumOutputs() != 1 {
		t.Error("clone mutated original outputs")
	}
	if m.NumNodes() == c.NumNodes() {
		t.Error("clone shares node storage")
	}
}

func TestStatsString(t *testing.T) {
	m := New("t")
	x := m.AddInput("x")
	y := m.AddInput("y")
	m.AddOutput("o", m.And(x, y))
	if s := m.Stats(); s == "" {
		t.Error("empty stats")
	}
}
