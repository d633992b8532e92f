package mig

// Window-parallel cut rewriting.
//
// RewritePass is inherently sequential: each node's candidates are probed
// against the partially built output graph, so node n's decision depends on
// every decision before it. WindowRewritePass restructures the pass into
// two phases so the expensive part parallelizes:
//
//  1. Evaluation (parallel). The live nodes are partitioned into windows —
//     maximal fanout-free cones (every node with a single live fanout
//     belongs to the window of its unique parent; multi-fanout nodes and
//     output drivers root their own window). Windows are distributed over a
//     worker pool; each worker owns a private clone of the input graph and,
//     per window, probes every cut candidate of every window node against
//     that clone (checkpoint/commit inside the window, rollback at window
//     end). A window's decisions therefore depend only on the input graph
//     and the window's own earlier decisions — never on another window or
//     on worker scheduling.
//
//  2. Commit (serial). A single topological rebuild replays the chosen
//     candidate of every node with full structural hashing, exactly as a
//     serial run of the same pass would. The output is byte-identical for
//     every worker count, including 1.
//
// Quality differs slightly from RewritePass (candidates are costed against
// the input graph plus window-local context instead of the partially built
// output), but functional equivalence holds by the same argument: every
// replacement realizes the node's cut function over equivalent leaf
// signals.
//
// Candidates are scored by DAG-aware net gain: nodes the probe adds
// (after structural hashing) minus the interior nodes of the replaced cut
// cone that lose their last reference (freedBy, an MFFC-style dereference
// that first protects everything the new cone reuses). Without the freed
// credit a structurally different replacement could never displace the
// incumbent structure — the incumbent re-derives itself for free through
// the strash while the replacement pays full price, which matters most
// for rewrite-npn, whose database implementations rarely share structure
// with the heuristically built graph.

import (
	"context"

	"repro/internal/cut"
	"repro/internal/opt"
)

// windowChoice records the evaluation result for one node: the cut index
// that won (-1 keeps the default reconstruction), the cut function, and
// which synthesizer produced the winner (npn: the exact database instead
// of the heuristic synthW). The commit phase replays exactly this choice.
type windowChoice struct {
	cutIdx int32
	nvars  int32
	w      uint64
	npn    bool
}

// Windows partitions the live majority nodes into maximal fanout-free
// cones, each in topological (index) order, ordered by first member. This
// is the unit of work of the window-parallel passes.
func (m *MIG) Windows() [][]int {
	refs := m.FanoutCounts()
	lp := takeBools(len(m.nodes))
	live := m.liveInto(*lp)
	defer releaseBools(lp)
	return m.windows(live, refs)
}

func (m *MIG) windows(live []bool, refs []int) [][]int {
	// wroot[i] is the root of i's window: nodes referenced once belong to
	// their unique parent's window, so scanning parents in descending
	// index order propagates roots down whole cones.
	wrp := takeInts(len(m.nodes))
	wroot := *wrp
	defer releaseInts(wrp)
	for i := range wroot {
		wroot[i] = i
	}
	for i := len(m.nodes) - 1; i >= 0; i-- {
		if !live[i] || m.nodes[i].kind != kindMaj {
			continue
		}
		for _, f := range m.nodes[i].fanin {
			fn := f.Node()
			if live[fn] && m.nodes[fn].kind == kindMaj && refs[fn] == 1 {
				wroot[fn] = wroot[i]
			}
		}
	}
	sp := takeInts(len(m.nodes))
	slot := *sp
	defer releaseInts(sp)
	for i := range slot {
		slot[i] = -1
	}
	var windows [][]int
	for i := 0; i < len(m.nodes); i++ {
		if !live[i] || m.nodes[i].kind != kindMaj {
			continue
		}
		r := wroot[i]
		if slot[r] < 0 {
			slot[r] = len(windows)
			windows = append(windows, nil)
		}
		windows[slot[r]] = append(windows[slot[r]], i)
	}
	return windows
}

// WindowRewritePass runs cut rewriting with candidate evaluation fanned out
// over jobs workers. jobs <= 1 evaluates serially; the committed result is
// byte-identical for every jobs value.
func (m *MIG) WindowRewritePass(k, maxCuts, jobs int) *MIG {
	out, _ := m.WindowRewritePassCtx(context.Background(), k, maxCuts, jobs)
	return out
}

// WindowRewritePassCtx is WindowRewritePass honoring a context:
// cancellation stops the window evaluation and returns the unmodified
// input graph with the context's error (the serial commit phase never runs
// on a partial evaluation, preserving byte-identity for any cancellation
// point).
func (m *MIG) WindowRewritePassCtx(ctx context.Context, k, maxCuts, jobs int) (*MIG, error) {
	return m.windowRewriteCtx(ctx, k, maxCuts, jobs, false)
}

// windowRewriteCtx is the shared two-phase engine behind window-rewrite
// and rewrite-npn. npn additionally probes the exact NPN-database
// implementation of every (at most 4-input) cut.
func (m *MIG) windowRewriteCtx(ctx context.Context, k, maxCuts, jobs int, npn bool) (*MIG, error) {
	cuts := m.CutSet(k, maxCuts)
	refs := m.FanoutCounts()
	lp := takeBools(len(m.nodes))
	live := m.liveInto(*lp)
	defer releaseBools(lp)
	windows := m.windows(live, refs)

	// Phase 1: evaluate windows on worker-private clones.
	choices := make([]windowChoice, len(m.nodes))
	if jobs > len(windows) {
		jobs = len(windows)
	}
	if jobs < 1 {
		jobs = 1
	}
	workers := make(chan *winWorker, jobs)
	for w := 0; w < jobs; w++ {
		if w == 0 && jobs == 1 {
			// A serial run can probe on m itself: every probe is rolled
			// back and freedBy restores the reference counts exactly, so
			// both the graph and refs are unchanged on return.
			workers <- newWinWorker(m, refs)
		} else {
			workers <- newWinWorker(m.Clone(), append([]int(nil), refs...))
		}
	}
	err := opt.ForEachCtx(ctx, len(windows), jobs, func(wi int) {
		wk := <-workers
		wk.evalWindow(windows[wi], cuts, choices, npn)
		workers <- wk
	})
	for w := 0; w < jobs; w++ {
		(<-workers).release()
	}
	if err != nil {
		return m, err
	}

	// Phase 2: serial deterministic commit.
	out := New(m.Name)
	out.strash.Reserve(len(m.nodes))
	rp := takeSignals(len(m.nodes), badSignal)
	remap := *rp
	defer releaseSignals(rp)
	remap[0] = Const0
	for idx, in := range m.inputs {
		remap[in] = out.AddInput(m.names[idx])
	}
	var leafBuf []Signal
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !live[i] || nd.kind != kindMaj {
			continue
		}
		ch := choices[i]
		if ch.cutIdx >= 0 {
			leaves := cuts.Leaves(i, int(ch.cutIdx))
			leafBuf = leafBuf[:0]
			ok := true
			for _, l := range leaves {
				s := remap[l]
				if s == badSignal {
					ok = false
					break
				}
				leafBuf = append(leafBuf, s)
			}
			if ok {
				if ch.npn {
					remap[i] = out.synthNPN(ch.w, int(ch.nvars), leafBuf)
				} else {
					remap[i] = out.synthW(ch.w, int(ch.nvars), leafBuf)
				}
				continue
			}
		}
		a := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		b := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		c := remap[nd.fanin[2].Node()].NotIf(nd.fanin[2].Neg())
		remap[i] = out.Maj(a, b, c)
	}
	for _, o := range m.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out, nil
}

// winWorker is the private state of one evaluation worker: a clone of the
// input graph, a copy of its fanout counts (freedBy mutates refs
// transiently and restores it exactly, so sharing one slice across workers
// would race), and the scratch every window reuses. remap spans the input
// graph's nodes and is all badSignal between windows: evalWindow resets
// exactly the slots it set, so a window costs in proportion to its own
// size, never to the graph's.
type winWorker struct {
	cl                *MIG
	refs              []int
	remap             *[]Signal // pooled
	fs                freedScratch
	leafBuf, bestSigs []Signal
}

func newWinWorker(cl *MIG, refs []int) *winWorker {
	return &winWorker{cl: cl, refs: refs, remap: takeSignals(len(cl.nodes), badSignal)}
}

// release returns the worker's remap to the pool.
func (wk *winWorker) release() {
	releaseSignals(wk.remap)
	wk.remap = nil
}

// freedScratch holds the reusable traversal buffers of freedBy so the
// per-probe gain accounting allocates only on growth.
type freedScratch struct {
	stack, incs, decs []int
}

// freedBy estimates how many nodes of the input graph would lose their
// last reference if node i were replaced by the cone rooted at s built
// over the given cut leaves: the maximum fanout-free cone of i with the
// leaves as absolute barriers, computed after protecting every old node
// the new cone reuses. refs holds the input graph's fanout counts and is
// restored exactly before returning, so determinism only needs refs to be
// worker-private. Nodes at or past len(refs) are probe- or window-local
// and carry no reference bookkeeping. Returns 0 when the new cone
// contains i itself — then nothing dies.
func (cl *MIG) freedBy(i int, s Signal, leaves []int32, refs []int, fs *freedScratch) int {
	if s.Node() == i {
		return 0
	}
	scr := cl.scr.begin(len(cl.nodes))
	for _, l := range leaves {
		scr.put(int(l), 1) // leaf: barrier for the dereference walk below
	}
	// Protect walk over the new cone: +1 every old node it reuses so the
	// dereference cannot free structure the replacement still needs. A
	// reused node that was dead (refs 0) is being revived, making its own
	// fanin edges real again, so its children need protecting too.
	fs.stack = append(fs.stack[:0], s.Node())
	fs.incs = fs.incs[:0]
	usesI := false
	for len(fs.stack) > 0 {
		n := fs.stack[len(fs.stack)-1]
		fs.stack = fs.stack[:len(fs.stack)-1]
		if scr.seen(n) || cl.nodes[n].kind != kindMaj {
			continue
		}
		scr.put(n, 2)
		if n == i {
			usesI = true
		}
		recurse := true
		if n < len(refs) {
			refs[n]++
			fs.incs = append(fs.incs, n)
			recurse = refs[n] == 1 // revived dead node
		}
		if recurse {
			for _, f := range cl.nodes[n].fanin {
				fs.stack = append(fs.stack, f.Node())
			}
		}
	}
	freed := 0
	if !usesI {
		// Dereference from i: every fanout of i gets remapped to s during
		// commit, so i itself dies, and then recursively every node whose
		// count drops to zero, stopping at the cut leaves.
		freed = 1
		fs.decs = fs.decs[:0]
		fs.stack = append(fs.stack[:0], i)
		for len(fs.stack) > 0 {
			n := fs.stack[len(fs.stack)-1]
			fs.stack = fs.stack[:len(fs.stack)-1]
			for _, f := range cl.nodes[n].fanin {
				fn := f.Node()
				if fn >= len(refs) || cl.nodes[fn].kind != kindMaj {
					continue
				}
				if v, ok := scr.get(fn); ok && v == 1 {
					continue // cut leaf: absolute barrier
				}
				refs[fn]--
				fs.decs = append(fs.decs, fn)
				if refs[fn] == 0 {
					freed++
					fs.stack = append(fs.stack, fn)
				}
			}
		}
		for _, n := range fs.decs {
			refs[n]++
		}
	}
	for _, n := range fs.incs {
		refs[n]--
	}
	return freed
}

// evalWindow probes the cut candidates of every node of one window against
// the worker's private clone and records the winning choices. The clone is
// rolled back to its entry state and the remap cleared before returning,
// so the next window on this worker sees the unmodified input graph. cuts
// is the (read-only) cut cache of the original graph; node indices are
// identical in the clone. The worker's refs back the freed-node credit of
// the net-gain scoring.
func (wk *winWorker) evalWindow(window []int, cuts *cut.Cache, choices []windowChoice, npn bool) {
	cl, refs, fs := wk.cl, wk.refs, &wk.fs
	wcp := cl.checkpoint()
	// Window-local remap: nodes of this window already rewritten, so later
	// window nodes are costed against the structure they will actually
	// have. It is only ever indexed by input-graph nodes (window fanins and
	// cut leaves): it is sized to the input graph, so a probe-built node
	// reaching it fails the bounds check instead of going unnoticed.
	wremap := *wk.remap
	if wcp != len(wremap) {
		panic("mig: window worker's clone is not the input graph")
	}
	remapped := func(s Signal) Signal {
		if r := wremap[s.Node()]; r != badSignal {
			return r.NotIf(s.Neg())
		}
		return s
	}

	leafBuf, bestSigs := wk.leafBuf, wk.bestSigs
	for _, i := range window {
		a := remapped(cl.nodes[i].fanin[0])
		b := remapped(cl.nodes[i].fanin[1])
		c := remapped(cl.nodes[i].fanin[2])

		// The default reconstruction is the baseline every candidate must
		// strictly beat on net gain (added minus freed). The default takes
		// no freed credit: with unremapped fanins it strash-hits node i
		// itself (added 0, freed 0), which forces candidates to actually
		// shrink the graph before they displace existing structure.
		cp := cl.checkpoint()
		def := cl.Maj(a, b, c)
		defAdded := len(cl.nodes) - cp
		defLevel := cl.Level(def)
		cl.rollback(cp)

		choice := windowChoice{cutIdx: -1}
		var bestW uint64
		bestN := 0
		haveBest := false
		bestNet, bestLevel := defAdded, defLevel
		for ci := 0; ci < cuts.NumCuts(i); ci++ {
			leaves := cuts.Leaves(i, ci)
			if len(leaves) < 2 || len(leaves) > 6 {
				continue
			}
			leafBuf = leafBuf[:0]
			for _, l := range leaves {
				leafBuf = append(leafBuf, remapped(MakeSignal(int(l), false)))
			}
			w := cl.cutFuncW(i, leaves)
			cp := cl.checkpoint()
			s := cl.synthW(w, len(leafBuf), leafBuf)
			added := len(cl.nodes) - cp
			level := cl.Level(s)
			net := added - cl.freedBy(i, s, leaves, refs, fs)
			cl.rollback(cp)
			if net < bestNet || (net == bestNet && level < bestLevel) {
				bestW, bestN = w, len(leafBuf)
				bestSigs = append(bestSigs[:0], leafBuf...)
				choice = windowChoice{cutIdx: int32(ci), nvars: int32(len(leafBuf)), w: w}
				haveBest = true
				bestNet, bestLevel = net, level
			}
			if npn && len(leafBuf) <= 4 {
				cp := cl.checkpoint()
				s := cl.synthNPN(w, len(leafBuf), leafBuf)
				added := len(cl.nodes) - cp
				level := cl.Level(s)
				net := added - cl.freedBy(i, s, leaves, refs, fs)
				cl.rollback(cp)
				if net < bestNet || (net == bestNet && level < bestLevel) {
					bestW, bestN = w, len(leafBuf)
					bestSigs = append(bestSigs[:0], leafBuf...)
					choice = windowChoice{cutIdx: int32(ci), nvars: int32(len(leafBuf)), w: w, npn: true}
					haveBest = true
					bestNet, bestLevel = net, level
				}
			}
		}
		choices[i] = choice
		// Commit the winner into the clone so later window nodes see it.
		switch {
		case haveBest && choice.npn:
			wremap[i] = cl.synthNPN(bestW, bestN, bestSigs)
		case haveBest:
			wremap[i] = cl.synthW(bestW, bestN, bestSigs)
		default:
			wremap[i] = cl.Maj(a, b, c)
		}
	}
	for _, i := range window {
		wremap[i] = badSignal
	}
	wk.leafBuf, wk.bestSigs = leafBuf, bestSigs
	cl.rollback(wcp)
}
