// Package repro is a from-scratch Go reproduction of "Majority-Inverter
// Graph: A Novel Data-Structure and Algorithms for Efficient Logic
// Optimization" (Amarù, Gaillardon, De Micheli — DAC 2014).
//
// # Public API
//
// The stable, importable surface is the logic package and its siblings —
// everything under internal/ is implementation detail, and none of the
// executables or examples import it:
//
//   - logic exports the representation-agnostic Network interface (stats,
//     I/O names, Clone, BLIF/Verilog encode/decode) implemented by the
//     MIG, the AIG and the flat netlist, plus construction APIs (NewMIG,
//     NewAIG, NewNetwork) and conversions (ToMIG, ToAIG, Flatten).
//   - logic.Session is the configured optimizer: functional options
//     (WithEffort, WithObjective, WithScript, WithStrategy, WithVerify,
//     WithWorkers, WithFraig, ...) replace bare config literals, and
//     Optimize(ctx, net) threads context.Context through the pass
//     pipeline, the window-parallel workers and the SAT solver's conflict
//     loop, so deadlines and cancellation interrupt C6288-class solves
//     promptly instead of waiting out conflict budgets. logic.Equivalent
//     is context-aware combinational equivalence checking;
//     logic.Passes/FormatPassList enumerate the scriptable passes with
//     argument signatures in deterministic order, and logic.Strategies
//     lists the named strategy library.
//   - logic/script is the strategy library and tuner: whole optimization
//     flows as named, versioned objects (migscript, migscript-depth,
//     migscript2, aigscript, compress2rs, tuned-size, tuned-depth), each
//     validated against the live pass registry at init and resolvable by
//     logic.WithStrategy, mighty/migbench -strategy and the service's
//     script_name; script.Tune searches pass-script space (greedy
//     pass-append plus local search under wall-clock/trial/ctx budgets)
//     for new strategies — the shipped tuned-* entries are its output on
//     the MCNC suite. script.Register adds site-local strategies at
//     runtime.
//   - logic/bench is the experiment harness: the paper's benchmark
//     circuits (Circuit, Compress), the Table I flows and batch engine
//     (RunOptRows, RunSynthRows, RunCompress), report JSON, the
//     quality-trajectory diff (DiffReports), and the MCNC-backed
//     evaluator behind the script tuner (ScriptEvaluator).
//   - logic/partition is the scale-out layer: Cut runs the deterministic
//     multilevel k-way hypergraph partitioner on any Network, Windows
//     extracts the per-part subcircuits, and Optimize runs the whole
//     partitioned flow (cut, parallel mixed MIG/AIG per-window
//     synthesis, serial stitch) returning the optimized netlist plus a
//     PartitionReport. Sessions reach the same flow via
//     logic.WithPartitions(k), scripts via the registered
//     "partition(k, effort)" meta-pass, and the CLIs via -partition.
//     See # Partitioning below and docs/PARTITION.md.
//   - service is the HTTP/JSON optimization daemon behind cmd/migd:
//     POST /v1/optimize runs a Session under deadline-aware admission
//     control (bounded worker pool + bounded wait queue, 429+Retry-After
//     load shedding), per-client token-bucket rate limits, singleflight
//     collapsing of identical in-flight work, panic containment, and
//     graceful drain (/readyz flips 503, in-flight work finishes), with
//     an LRU result cache keyed by (network hash, effective script,
//     options) — named strategies are accepted as script_name and listed
//     by GET /v1/scripts, GET /v1/stats exposes the robustness counters;
//     the package also ships the Go Client (bounded-backoff retries of
//     429/503/transport failures only) used by examples/service. The
//     wire protocol and failure semantics are documented in
//     docs/SERVICE.md.
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	m := logic.NewMIG("carry")
//	a, b := m.AddInput("a"), m.AddInput("b")
//	m.AddOutput("cout", m.Maj(a, b, logic.MIGConst0))
//	sess, _ := logic.NewSession(logic.WithObjective("depth"), logic.WithVerify("auto"))
//	opt, res, err := sess.Optimize(ctx, m)            // res.Trace, res.VerifyMethod
//	text, _ := logic.Encode(opt, logic.FormatVerilog) // or opt.EncodeBLIF()
//
// # Architecture: passes and pipelines
//
// The optimization spine is the generic pass engine in internal/opt. Each
// local transformation sweep — the paper's Ω/Ψ rewrites on the MIG, the
// ABC-style balance/rewrite/refactor on the AIG — is a named, registered
// Pass, and the paper's Section IV algorithms are Pipelines: ordered
// compositions of passes with a per-pass metrics trace (size, depth,
// switching activity, wall time) and optional functional-equivalence
// verification after every step.
//
//   - internal/mig registers eliminate, eliminate-budget, reshape-size,
//     reshape-depth, pushup, activity, cut-rewrite, window-rewrite,
//     rewrite-npn, fraig and cleanup, and exposes
//     Algorithm 1 (SizePipeline), Algorithm 2 (DepthPipeline), the §V.A
//     experimental flow (FlowPipeline) and the §IV.C activity flow
//     (ActivityPipeline) as canned pipelines.
//   - internal/aig registers balance, rewrite, refactor, fraig and cleanup,
//     and exposes the resyn2 recipe as Resyn2Pipeline.
//   - Textual pass scripts ("eliminate(8); reshape-depth; eliminate")
//     compile to pipelines via opt.Parse; the mighty CLI exposes this
//     through -script and -list-passes.
//
// Cut enumeration (merge, dominance filtering, truth-table extraction) is
// shared by both graph representations through internal/cut.
//
// # Performance architecture
//
// The data plane of both graph packages is allocation-free on its hot
// paths:
//
//   - Structural hashing (strash) is an open-addressing hash table
//     (internal/hashed) keyed on packed fanin signals, with linear probing
//     over power-of-two capacities; each key shares one slot with its
//     value, so a probe reads one cache line. The MIG Ω/Ψ passes price
//     every candidate by lookup alone (against an overlay of at most
//     three virtual nodes) and build only the winner. The window engine,
//     cut-rewrite, the activity pass and the AIG passes still probe by
//     building and rolling back, which the table serves with
//     tombstone-free backward-shift deletion; deletion is value-guarded
//     (DeleteAbove), so a rollback can never evict a surviving node's
//     entry, and graph Clone is a flat slice copy.
//   - Every old→new remap of the topological rebuilds is a dense []Signal
//     slice drawn from pooled slabs, and the cone traversals
//     (replaceInCone, coneContains, local activity, truth-table walks)
//     memoize in epoch-stamped arrays owned by the graph — clearing is a
//     counter increment, not an allocation.
//   - Cut enumeration writes into an arena-backed cut.Cache: all leaves in
//     one flat array, spans per cut, offsets per node. The cache lives on
//     the graph and is maintained incrementally — appended nodes are
//     enumerated on demand (Extend) and rolled-back nodes are dropped in
//     O(1) (Truncate) — so repeated passes over an unchanged region never
//     re-enumerate the whole graph.
//   - Functions of up to six variables (every 4-input cut) are synthesized
//     and extracted as single uint64 words (internal/mig synth6.go):
//     cofactors, projections and matching are pure word arithmetic.
//   - AIG cut rewriting (internal/aig opt.go) factors each cut function of
//     up to six variables once per pipeline: a graph-owned memo maps the
//     truth table's word to its sop.FactorTT form and is handed on by every
//     topological rebuild (rewrite, refactor, balance, cleanup, fraig), so
//     the probe and commit of a cut, and later passes meeting the same
//     function, reuse one factoring. The factored form is built on a
//     graph-owned scratch stack, combining operands in place, so a memo
//     hit allocates nothing beyond the nodes it adds.
//   - Candidate probing in the Ω/Ψ passes records (shape, parameters)
//     records instead of capturing rebuild closures, keeping the probe
//     inner loop off the heap.
//
// Window-parallel rewriting (mig.WindowRewritePass, pass name
// "window-rewrite") partitions the live nodes into maximal fanout-free
// cones, evaluates cut candidates per cone on a worker pool (each worker
// probes against a private clone), and commits the chosen rewrites in one
// serial topological rebuild. Each worker also owns its scratch — the
// window remap, sized to the graph once per pass and reset slot by slot
// after each cone, and the probe buffers — so evaluating a cone costs in
// proportion to the cone, not the graph, and allocates nothing once warm.
// Workers claim cones from a shared counter, with the calling goroutine as
// one of them; a panic in any worker is re-raised on the caller, where
// migd's per-request recovery turns it into an error response. Results
// are byte-identical for every worker count; opt.SetWorkers (the CLIs' -jobs flag) sets the process budget and
// logic.WithWorkers carries a per-session budget through the context, so
// concurrent server requests do not share one global knob. The pipeline
// engine, the parallel drivers (opt.ForEachCtx) and the SAT solver's
// conflict loop (Solver.Stop) all observe context cancellation.
//
// # Exact rewriting
//
// The rewrite-npn pass (mig.NPNRewritePass) replaces the heuristic
// candidate synthesis of cut rewriting with provably size-optimal
// implementations. Offline, cmd/npngen enumerates the 222 NPN equivalence
// classes of 4-input Boolean functions and exact-synthesizes a minimum-gate
// MIG for each class representative with the SAT encoding in
// internal/exact (selection-variable encoding over candidate fanins;
// gate count minimized first, depth as tiebreak, every witness re-verified
// by word simulation). The resulting database is checked in as generated
// Go source plus a canonical text mirror (internal/npndb), so runtime
// lookups are a table index away: canonize the cut function, fetch the
// class entry, replay the inverse NPN transform onto the cut leaves. The
// pass rides the window-rewrite machinery — per-cone probing on worker
// clones, serial deterministic commit, positive DAG-aware net gain
// required (nodes added after strashing minus the replaced cone's freed
// fanout-free interior) — so it is byte-identical for every worker count
// and never size-increasing. CI regenerates a database sample and fails on drift
// (npngen -check); docs/NPN.md documents the encoding and the database
// format.
//
// # Partitioning
//
// internal/part (public surface logic/partition) scales optimization
// past the single-graph regime. The netlist is modeled as a hypergraph
// (gates are vertices, signals are hyperedges) and cut into k balanced
// parts by a deterministic multilevel partitioner — heavy-edge
// coarsening, greedy initial cut, Fiduccia–Mattheyses boundary
// refinement at each uncoarsening level, (λ-1) connectivity objective,
// all tie-breaks seeded by a splitmix64 stream so the same (netlist,
// seed) always yields the same cut. Each part becomes a self-contained
// window (boundary signals become w_<node> inputs/outputs) and is
// optimized twice on a worker pool: once as a MIG under the session's
// script and objective, once as an AIG under resyn2-style rounds. The
// per-window winner is chosen by the session objective — for the
// default "flow" objective the score is the area-delay product, which
// lets arithmetic-shaped windows go MIG while wide factorable control
// cones go AIG. A serial stitch merges the winners back at gate
// granularity in deterministic order (parts may feed each other
// cyclically at the quotient level, so the stitch interleaves gates
// rather than whole windows). The stitched output is byte-identical for
// any worker count and functionally equivalent to the input.
//
// Supporting cast: logic/bench.Mesh (miggen -nodes) generates
// deterministic ~N-gate tiled meshes with heterogeneous regions for
// exercising the flow at 100k+ gates, and BLIF decoding streams from
// io.Reader (internal/blif.ParseReader, logic.DecodeReader) with a
// worklist for out-of-order .names blocks, so peak memory tracks the
// netlist rather than the file. Decoding is strict: a signal driven twice,
// a .names over an input, a repeated port name or a second Verilog assign
// to a net is an error naming the signal (and, for BLIF, the line), and
// the encoders keep internal net names from capturing port names. docs/PARTITION.md documents the
// algorithm and the determinism contract.
//
// # SAT subsystem
//
// internal/sat is a compact CDCL solver (two-watched-literal propagation,
// first-UIP learning, VSIDS activities, Luby restarts, incremental solving
// under assumptions with conflict budgets) plus Tseitin CNF encoders for
// the netlist IR — the majority gate encodes as its six two-out-of-three
// cover clauses. The solver is built for reuse: clause groups
// (PushGroup/ReleaseGroup) gate batches of clauses behind activation
// literals so they can be retracted without discarding what the solver
// learned, Purge recycles released clauses and variables, and Reset
// rewinds a solver to the exact fresh-solver state while keeping its
// memory. Three layers build on it:
//
//   - internal/equiv gained a fourth engine: a SAT miter strengthened by
//     internal-point sweeping (shared random simulation proposes internal
//     node pairs, each proved inside a retractable clause group under an
//     explicit half-of-budget cap and asserted as a permanent equality
//     clause), which decides arithmetic-circuit miters that are hopeless
//     for a bare CDCL run. The auto layering is exact -> BDD -> SAT ->
//     simulation; mismatches carry the failing input assignment in
//     Result.Detail, and Result now also reports the conflicts and
//     restarts the check consumed. For scripted pipeline runs,
//     equiv.Incremental proves each pass against the previous step with
//     one persistent solver: a structural cone diff discharges untouched
//     outputs for free and a group-scoped cone miter spans only the
//     rewritten region, falling back to the full layered check when
//     undecided. Options.Engine and the CLIs' -verify flag force a
//     specific engine.
//   - The fraig passes of the MIG and the AIG run one SAT-sweeping engine,
//     internal/fraig: candidate equivalence classes from random
//     simulation, per-pair cone proofs fanned over opt.ForEach workers,
//     refutation counterexamples refining the next round, and proven nodes
//     merged through the representation's rebuild. Each worker owns one
//     long-lived solver rewound with Reset per pair, so solver
//     constructions are O(workers) while results stay deterministic for
//     any worker count and never size-increasing. A representation plugs
//     in through fraig.Graph, a small view of its graph: node kind,
//     fanins in order, the gate's CNF encoder (AddMajGate / AddAndGate)
//     and the merge rebuild. The building blocks (stimulus rows,
//     canonical-signature classification, the session counterexample pool
//     that persists refutation patterns across the passes of one run)
//     live in internal/sweep, shared with the miter.
//   - The solver itself is proven against brute-force enumeration on
//     random CNFs (and continuously via FuzzSolver), with the same suite
//     replayed through reused group-gated solvers.
//
// See internal/sat/README.md for the architecture and encoding details.
//
// # Benchmark engine
//
// logic/bench composes the flows the paper evaluates (MIG vs AIG vs
// BDS/CST) and runs them through a parallel batch engine: circuits are
// distributed over a worker pool and the competing flows of each circuit
// run concurrently, with results in deterministic input order (migbench
// -jobs). migbench -json emits per-circuit metrics for tracking the
// performance trajectory across commits; CI snapshots each run and gates
// regressions against bench_baseline.json via cmd/benchdiff
// (bench.DiffReports).
//
// The engines live under internal/: the MIG core (internal/mig), the AIG
// and BDS baselines (internal/aig, internal/bdd), the pass engine
// (internal/opt), shared cut machinery (internal/cut), the SOP engine
// (internal/sop), technology mapping (internal/mapping), and the MCNC
// benchmark stand-ins (internal/mcnc). The public surface is logic,
// logic/bench, logic/partition and service. Executables are under cmd/ (mighty, migbench,
// miggen, benchdiff, migd) and runnable examples under examples/.
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation; migbench prints measured values next to the values
// the paper reports, and internal/mcnc documents the benchmark
// substitution rationale (the MCNC originals are not redistributable, so
// functional stand-ins preserve each circuit's I/O shape, functional
// family and size scale).
//
// The user-facing documentation lives in README.md (overview and
// quickstart), docs/PASSES.md (the generated pass and strategy
// reference), docs/PARTITION.md (the partition subsystem) and
// docs/SERVICE.md (the migd wire protocol).
//
//go:generate go run ./cmd/passdoc -out docs/PASSES.md
package repro
