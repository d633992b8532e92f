// Package fraig is the one simulation-guided SAT-sweeping engine (the
// classic fraig flow of Mishchenko et al., "FRAIGs: A Unifying
// Representation for Logic Synthesis and Verification", 2005), written
// once for every graph representation: random simulation partitions the
// live nodes into candidate equivalence classes, a SAT solver
// (internal/sat) proves or refutes each (representative, member)
// candidate on the pair's fanin cones, refutation counterexamples are fed
// back as simulation patterns refining the next round's classes, and
// proven-equivalent nodes merge through the representation's own rebuild —
// where structural hashing collapses the redirected fanout, so the pass can
// only shrink the graph.
//
// A representation plugs in through Graph, a small view of its node
// array: node kind, fanins in order, the gate's CNF encoder and the merge
// rebuild. Everything else — the round loop, the session counterexample
// pool (internal/sweep), signature classification, the pooled solvers, the
// cone walk and encoding, and counterexample extraction — lives here.
//
// Candidate pairs are independent single-shot SAT problems, so they fan
// out over opt.ForEachCtx workers. Each worker owns one long-lived solver
// and rewinds it with Reset between pairs: Reset restores the exact
// fresh-solver logical state while keeping the memory, so every verdict —
// decisions, conflicts, models — is a pure function of the pair,
// independent of which worker solved it or what it solved before. That is
// what keeps the pass byte-identical for any worker count while solver
// constructions drop from one per candidate pair to one per worker.
// Carrying learnt clauses across pairs instead would make verdict models
// depend on scheduling history and break that guarantee, which is why the
// sharing stops at memory reuse.
package fraig

import (
	"context"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/opt"
	"repro/internal/sat"
	"repro/internal/sweep"
)

// Kind classifies a node for the engine.
type Kind uint8

const (
	Const Kind = iota // the constant-0 node
	Input             // a primary input
	Gate              // a logic node; the only kind that merges
)

// Graph is the view of one logic representation the engine sweeps. Node
// indices are topologically ordered (fanins below their gate); fanin
// literals use the packed node<<1 | complement encoding of the graph
// packages.
type Graph[G any] interface {
	NumNodes() int
	Inputs() []int // node indices of the primary inputs, in declaration order
	Size() int
	LiveMask() []bool
	EvalWord(row []uint64) []uint64 // word-level simulation of every node
	Kind(node int) Kind
	// Fanins appends the gate's fanin literals, in order, to buf.
	Fanins(node int, buf []uint32) []uint32
	// EncodeGate asserts out <-> gate(ins) on the solver.
	EncodeGate(s *sat.Solver, out sat.Lit, ins []sat.Lit)
	// Merge rebuilds the graph over its live nodes, redirecting each node
	// i with repr[i] >= 0 to that representative's signal XOR phase[i].
	Merge(live []bool, repr []int32, phase []bool) G
}

// Run sweeps g for up to rounds iterations with words 64-bit random
// simulation words (plus accumulated counterexample patterns), a conflict
// budget per SAT query, and candidate solving fanned over jobs workers.
// Round r draws its random words from seed+r. The result is functionally
// equivalent to g and never larger.
//
// Cancellation interrupts the per-pair SAT solves and the candidate sweep
// promptly and returns g unmodified with the context's error (partial
// rounds are never committed, so the result stays byte-identical for any
// worker count and any cancellation point).
//
// When the context carries a session counterexample pool
// (sweep.ContextWithPool — pipelines install one per run), the first round
// seeds its stimulus with every pattern the session has accumulated, and
// the patterns this pass refutes are committed back on success. Both
// transfers happen here, serially, so the pool's content — like the pass
// result — is independent of the worker budget.
func Run[G Graph[G]](ctx context.Context, g G, seed int64, words, rounds int, budget int64, jobs int) (G, error) {
	words, rounds = max(words, 1), max(rounds, 1)
	pool := sweep.PoolFrom(ctx)
	cexes := pool.Snapshot(len(g.Inputs()))
	seeded := len(cexes)
	cur := g
	for r := 0; r < rounds; r++ {
		next, merged, newCex := round(ctx, cur, seed+int64(r), words, budget, jobs, cexes)
		if err := ctx.Err(); err != nil {
			return g, err
		}
		cexes = append(cexes, newCex...)
		if merged == 0 {
			break
		}
		cur = next
	}
	pool.Add(cexes[seeded:])
	if cur.Size() > g.Size() {
		return g, nil // cannot happen (merges only redirect fanout), kept as a guard
	}
	return cur, nil
}

// verdict is one solved candidate pair.
type verdict struct {
	proven bool
	cex    []bool // refutation input assignment, nil otherwise
}

// round is one simulate–classify–prove–merge iteration. It returns the
// rebuilt graph, the number of merged nodes, and the counterexample
// patterns gathered from refutations. The pair list and the verdict fold
// are order-fixed, so the result is independent of worker scheduling.
func round[G Graph[G]](ctx context.Context, g G, seed int64, words int, budget int64, jobs int, cexes [][]bool) (G, int, [][]bool) {
	rng := rand.New(rand.NewSource(seed))
	// Considered nodes: the constant, every primary input, and every live
	// gate — so a gate can merge into a constant or an input, not only
	// into another gate.
	live := g.LiveMask()
	n := g.NumNodes()
	rows := sweep.Rows(len(g.Inputs()), words, rng.Uint64, cexes)
	sig := make([][]uint64, len(rows))
	for w, row := range rows {
		sig[w] = g.EvalWord(row)
	}
	pairs := sweep.Pairs(sig, n,
		func(i int) bool { return g.Kind(i) != Gate || live[i] },
		func(i int) bool { return g.Kind(i) == Gate && live[i] })
	if len(pairs) == 0 {
		return g, 0, nil
	}
	// Input ordinal per input node, for counterexample extraction.
	piOrd := make([]int32, n)
	for ord, v := range g.Inputs() {
		piOrd[v] = int32(ord)
	}
	stop := sat.StopOn(ctx)
	verdicts := make([]verdict, len(pairs))
	opt.ForEachCtx(ctx, len(pairs), jobs, func(k int) { verdicts[k] = solve(g, pairs[k], budget, piOrd, stop) })

	repr := make([]int32, n)
	for i := range repr {
		repr[i] = -1
	}
	phase := make([]bool, n)
	merged := 0
	var newCex [][]bool
	for k, v := range verdicts {
		if v.proven {
			repr[pairs[k].Member] = int32(pairs[k].Repr)
			phase[pairs[k].Member] = pairs[k].Phase
			merged++
		} else if v.cex != nil {
			newCex = append(newCex, v.cex)
		}
	}
	if merged == 0 || ctx.Err() != nil {
		return g, 0, newCex
	}
	return g.Merge(live, repr, phase), merged, newCex
}

// worker is the per-worker solving state: one long-lived solver plus the
// cone traversal scratch. Pooled so the number of live instances — and
// therefore of solver constructions — is bounded by the number of
// concurrently solving workers, not by the number of candidate pairs.
type worker struct {
	s       *sat.Solver
	scr     sweep.Scratch[sat.Lit]
	stack   []int
	cone    []int
	piNodes []int
	fanins  []uint32
	ins     []sat.Lit
}

var workers = sync.Pool{New: func() any { return &worker{s: sat.NewSolver()} }}

// solve decides one candidate on the union of the two fanin cones: UNSAT
// proves member == repr XOR phase. The worker's solver is rewound with
// Reset, so the verdict is identical to a fresh solver's. stop, when
// non-nil, interrupts the solve (the pair is left unmerged).
func solve[G Graph[G]](g G, p sweep.Pair, budget int64, piOrd []int32, stop func() bool) verdict {
	w := workers.Get().(*worker)
	defer workers.Put(w)
	w.scr.Reset(g.NumNodes())
	scr := &w.scr

	stack := append(w.stack[:0], p.Repr, p.Member)
	cone := w.cone[:0]
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if scr.Seen(v) {
			continue
		}
		scr.Set(v, sat.LitUndef)
		cone = append(cone, v)
		if g.Kind(v) == Gate {
			w.fanins = g.Fanins(v, w.fanins[:0])
			for _, f := range w.fanins {
				stack = append(stack, int(f>>1))
			}
		}
	}
	sort.Ints(cone) // nodes are topologically ordered by index
	w.stack, w.cone = stack, cone

	s := w.s
	s.Reset()
	s.Stop = stop
	piNodes := w.piNodes[:0]
	for _, v := range cone {
		switch g.Kind(v) {
		case Const:
			scr.Set(v, s.FalseLit())
		case Input:
			scr.Set(v, sat.MkLit(s.NewVar(), false))
			piNodes = append(piNodes, v)
		case Gate:
			o := sat.MkLit(s.NewVar(), false)
			w.fanins = g.Fanins(v, w.fanins[:0])
			ins := w.ins[:0]
			for _, f := range w.fanins {
				ins = append(ins, scr.Get(int(f>>1)).NotIf(f&1 != 0))
			}
			g.EncodeGate(s, o, ins)
			w.ins = ins
			scr.Set(v, o)
		}
	}
	w.piNodes = piNodes
	d := sat.MkLit(s.NewVar(), false)
	s.AddXorGate(d, scr.Get(p.Repr), scr.Get(p.Member).NotIf(p.Phase))
	if !s.AddClause(d) {
		return verdict{proven: true} // difference contradicted at level 0
	}
	s.MaxConflicts = budget
	switch s.Solve() {
	case sat.Unsat:
		return verdict{proven: true}
	case sat.Sat:
		cex := make([]bool, len(g.Inputs()))
		for _, v := range piNodes {
			cex[piOrd[v]] = s.ValueLit(scr.Get(v))
		}
		return verdict{cex: cex}
	}
	return verdict{} // budget exhausted: leave the pair unmerged
}
