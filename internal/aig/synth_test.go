package aig

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mcnc"
	"repro/internal/opt"
	"repro/internal/tt"
)

// synthFunctions returns every function of up to three variables plus a
// seeded sample of four- to six-variable functions.
func synthFunctions() []tt.TT {
	var fs []tt.TT
	for n := 0; n <= 3; n++ {
		for w := uint64(0); w < 1<<(1<<n); w++ {
			fs = append(fs, tt.FromWords(n, []uint64{w}))
		}
	}
	r := rand.New(rand.NewSource(13))
	for n := 4; n <= 6; n++ {
		for i := 0; i < 200; i++ {
			fs = append(fs, tt.FromWords(n, []uint64{r.Uint64()}))
		}
	}
	return fs
}

// synthInto synthesizes f into g over fresh inputs and exposes it as the
// only output.
func synthInto(g *AIG, f tt.TT) Signal {
	leaves := make([]Signal, f.NumVars())
	for i := range leaves {
		leaves[i] = g.AddInput("x")
	}
	s := SynthesizeTT(g, f, leaves)
	g.AddOutput("f", s)
	return s
}

// A memo hit builds exactly what a fresh factoring builds: same nodes,
// same level, same function.
func TestSynthesizeTTWarmMemoMatchesFresh(t *testing.T) {
	fs := synthFunctions()
	warm := New("warm")
	for _, f := range fs {
		synthInto(warm, f)
	}
	entries := len(warm.memo)
	for _, f := range fs {
		fresh := New("fresh")
		fsig := synthInto(fresh, f)
		hit := New("hit")
		hit.memo = warm.memo
		hsig := synthInto(hit, f)
		if !slices.Equal(fresh.nodes, hit.nodes) || fsig != hsig {
			t.Fatalf("%s: warm-memo structure differs from fresh (%d vs %d nodes)",
				f.Hex(), hit.NumNodes(), fresh.NumNodes())
		}
		if fresh.Level(fsig) != hit.Level(hsig) {
			t.Fatalf("%s: level %d vs %d", f.Hex(), hit.Level(hsig), fresh.Level(fsig))
		}
		if got := collapse(t, hit)[0]; !got.Equal(f) {
			t.Fatalf("%s: warm-memo synthesis computes %s", f.Hex(), got.Hex())
		}
	}
	if n := len(warm.memo); n != entries {
		t.Fatalf("memo grew %d -> %d on functions it already held", entries, n)
	}
}

// A memo hit with warm scratch allocates nothing: the probe/rollback
// pattern of cut rewriting reuses the node, strash and operand capacity.
func TestSynthesizeTTMemoHitAllocs(t *testing.T) {
	a := New("allocs")
	leaves := make([]Signal, 6)
	for i := range leaves {
		leaves[i] = a.AddInput("x")
	}
	r := rand.New(rand.NewSource(7))
	fs := make([]tt.TT, 16)
	for i := range fs {
		fs[i] = tt.FromWords(6, []uint64{r.Uint64()})
	}
	probe := func() {
		for _, f := range fs {
			cp := a.checkpoint()
			SynthesizeTT(a, f, leaves)
			a.rollback(cp)
		}
	}
	probe()
	if allocs := testing.AllocsPerRun(20, probe); allocs != 0 {
		t.Fatalf("memo-hit synthesis allocates %.1f times per %d probes, want 0", allocs, len(fs))
	}
}

// onCopy runs fn on a memo-less copy of its input.
func onCopy(name string, fn func(*AIG) *AIG) opt.Pass[*AIG] {
	return opt.New(name, func(a *AIG) *AIG { return fn(a.Clone()) })
}

// The memo carried through a whole resyn2 run changes nothing: every MCNC
// circuit ends byte-identical to running each pass on a memo-less copy.
func TestResyn2CarriedMemoMatchesMemoless(t *testing.T) {
	const rounds = 2
	memoless := &opt.Pipeline[*AIG]{Passes: []opt.Pass[*AIG]{
		onCopy("cleanup", (*AIG).Cleanup),
		opt.Best("resyn2", rounds, betterBySizeDepth, func(int) []opt.Pass[*AIG] {
			balance := onCopy("balance", (*AIG).Balance)
			rewrite := onCopy("rewrite", func(a *AIG) *AIG { return a.Rewrite().Cleanup() })
			refactor := onCopy("refactor", func(a *AIG) *AIG { return a.Refactor().Cleanup() })
			return []opt.Pass[*AIG]{balance, rewrite, refactor, balance, rewrite}
		}),
	}}
	carriedAny := false
	for _, name := range mcnc.Names() {
		n, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		a := FromNetwork(n)
		// The result may be the cleaned-up input, which no rewrite has
		// touched; any later graph carries the memo.
		carried := runCanned(t, Resyn2Pipeline(rounds), a)
		carriedAny = carriedAny || len(carried.memo) > 0
		want := runCanned(t, memoless, a.Clone())
		if !slices.Equal(carried.nodes, want.nodes) || !slices.Equal(carried.Outputs, want.Outputs) {
			t.Errorf("%s: carried-memo resyn2 differs from memo-less (%s vs %s)",
				name, carried.Stats(), want.Stats())
		}
	}
	if !carriedAny {
		t.Fatal("no resyn2 result carried a memo")
	}
}
