package logic

// Session: the SDK's configured optimizer. Functional options replace the
// bare config-struct literals of earlier revisions; Optimize threads its
// context through the pass pipeline, the window-parallel workers and the
// SAT solver's conflict loop, so a deadline or cancellation interrupts
// C6288-class solves promptly instead of waiting out conflict budgets.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/aig"
	"repro/internal/equiv"
	"repro/internal/mig"
	"repro/internal/opt"
	"repro/internal/part"
	"repro/internal/sweep"
)

// Session is an immutable optimizer configuration. Build one with
// NewSession; the zero set of options reproduces the mighty CLI's defaults
// (the paper's §V.A flow at effort 3, no verification).
type Session struct {
	effort    int
	aigRounds int
	workers   int
	objective string
	script    string
	// strategy and strategyKind record a WithStrategy resolution: the
	// library name behind script, and the representation it targets.
	strategy     string
	strategyKind string
	verify       string // equivalence engine; "" = verification off
	verifyOn     bool
	fraig        bool
	probs        []float64
	partitions   int
}

// Option configures a Session.
type Option func(*Session) error

// WithEffort sets the optimization effort (the paper's Alg. 1/2 cycle
// count; CLI default 3).
func WithEffort(n int) Option {
	return func(s *Session) error {
		if n < 1 {
			return fmt.Errorf("logic: effort %d, must be >= 1", n)
		}
		s.effort = n
		return nil
	}
}

// WithObjective selects the canned optimization target: "size" (Alg. 1),
// "depth" (Alg. 2), "activity" (§IV.C), "flow" (the paper's experimental
// recipe, the default), or "none" (representation conversion only).
func WithObjective(o string) Option {
	return func(s *Session) error {
		switch o {
		case "size", "depth", "activity", "flow", "none":
			s.objective = o
			return nil
		}
		return fmt.Errorf("logic: unknown objective %q (want size, depth, activity, flow or none)", o)
	}
}

// WithScript replaces the canned objective with a pass script such as
// "eliminate(8); reshape-depth; fraig" compiled against the input
// representation's pass registry (see Passes). Use WithStrategy to resolve
// a named script from the strategy library instead; a later WithScript
// clears any earlier strategy resolution.
func WithScript(script string) Option {
	return func(s *Session) error {
		s.script = script
		s.strategy, s.strategyKind = "", ""
		return nil
	}
}

// WithVerify enables functional-equivalence verification with the given
// engine: "auto" (layers exact → BDD → SAT → simulation by circuit size),
// "exact", "bdd", "sim", "sat", or "none"/"" to disable. Scripted runs are
// additionally checked after every pass.
func WithVerify(engine string) Option {
	return func(s *Session) error {
		eng, on, err := normalizeVerify(engine)
		if err != nil {
			return err
		}
		s.verify, s.verifyOn = eng, on
		return nil
	}
}

// WithWorkers sets the worker budget for parallel-safe passes
// (window-rewrite, fraig) on this session's runs. Results are
// byte-identical for any value. Zero (the default) inherits the
// process-wide budget.
func WithWorkers(n int) Option {
	return func(s *Session) error {
		if n < 0 {
			return fmt.Errorf("logic: workers %d, must be >= 0", n)
		}
		s.workers = n
		return nil
	}
}

// WithPartitions routes Optimize through the partition subsystem: the
// circuit is split into k windows by a deterministic multilevel
// partitioner, every window is optimized under both a MIG and an AIG flow
// in parallel (worker budget from WithWorkers), and the per-objective
// winners are stitched back. Results are byte-identical for any worker
// count. 0 or 1 (the default) disables partitioning. The session's
// objective, effort and script configure the per-window MIG flow; the AIG
// candidate runs the resyn2 baseline (WithAIGRounds). Partitioned runs
// require a MIG-family configuration — an AIG strategy from WithStrategy
// is rejected at Optimize time.
func WithPartitions(k int) Option {
	return func(s *Session) error {
		if k < 0 {
			return fmt.Errorf("logic: partitions %d, must be >= 0", k)
		}
		if k > part.MaxK {
			return fmt.Errorf("logic: partitions %d exceeds the maximum of %d", k, part.MaxK)
		}
		s.partitions = k
		return nil
	}
}

// WithFraig appends the simulation-guided SAT-sweeping pass to the canned
// flows (ignored when a script is set — scripts name fraig explicitly).
func WithFraig(on bool) Option {
	return func(s *Session) error {
		s.fraig = on
		return nil
	}
}

// WithAIGRounds sets the resyn2 iteration count for AIG inputs (default 2).
func WithAIGRounds(n int) Option {
	return func(s *Session) error {
		if n < 1 {
			return fmt.Errorf("logic: aig rounds %d, must be >= 1", n)
		}
		s.aigRounds = n
		return nil
	}
}

// WithActivityProbs sets the input one-probability profile the "activity"
// objective optimizes under (nil = uniform 0.5).
func WithActivityProbs(probs []float64) Option {
	return func(s *Session) error {
		s.probs = append([]float64(nil), probs...)
		return nil
	}
}

// normalizeVerify maps the user spelling of a verification engine to
// (engine, enabled).
func normalizeVerify(v string) (string, bool, error) {
	switch v {
	case "", "none", "off", "false":
		return "", false, nil
	case "auto", "true":
		return "", true, nil
	case "exact", "bdd", "sim", "sat":
		return v, true, nil
	}
	return "", false, fmt.Errorf("logic: unknown verify engine %q (want auto, exact, bdd, sim, sat or none)", v)
}

// NewSession builds a Session from options. The zero-option session
// matches the mighty CLI defaults: objective "flow", effort 3, AIG rounds
// 2, no verification, inherited worker budget.
func NewSession(opts ...Option) (*Session, error) {
	s := &Session{effort: 3, aigRounds: 2, objective: "flow"}
	for _, o := range opts {
		if err := o(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Script returns the session's pass script ("" when a canned objective is
// configured).
func (s *Session) Script() string { return s.script }

// Result carries the metrics of one Optimize call.
type Result struct {
	Before  Stats   `json:"before"`
	After   Stats   `json:"after"`
	Trace   Trace   `json:"trace"`
	Seconds float64 `json:"seconds"`
	// VerifyMethod is the equivalence engine that confirmed the result
	// ("" when verification was off).
	VerifyMethod string `json:"verify_method,omitempty"`
	VerifyDetail string `json:"verify_detail,omitempty"`
	// Partition reports the partitioned run (nil unless WithPartitions
	// routed this call through the partition subsystem).
	Partition *PartitionReport `json:"partition,omitempty"`
}

// Optimize runs the session's configuration on net and returns the
// optimized network in the same representation family: MIG and flat
// inputs produce a *MIG (flat netlists are remajorized first, exactly as
// the mighty CLI does), AIG inputs produce an *AIG. The context's deadline
// and cancellation interrupt the run — including SAT-backed verification
// and sweeping — promptly; on interruption the returned error wraps the
// context's.
func (s *Session) Optimize(ctx context.Context, net Network) (Network, *Result, error) {
	if s.workers > 0 {
		ctx = opt.ContextWithWorkers(ctx, s.workers)
	}
	// One counterexample pool per Optimize call: every fraig pass in this
	// run seeds from and feeds the same pattern set, and independent runs
	// (or Sessions) never share state. Callers that want wider sharing can
	// scope their own pool on the context.
	if sweep.PoolFrom(ctx) == nil {
		ctx = sweep.ContextWithPool(ctx, sweep.NewCexPool(0))
	}
	res := &Result{Before: net.Stats()}
	start := time.Now()

	var optimized Network
	var err error
	if s.partitions > 1 {
		optimized, res.Partition, res.Trace, err = s.optimizePartitioned(ctx, net)
	} else {
		switch net.Kind() {
		case KindAIG:
			optimized, res.Trace, err = s.optimizeAIG(ctx, net.(*AIG))
		case KindMIG:
			optimized, res.Trace, err = s.optimizeMIG(ctx, net.(*MIG))
		default:
			optimized, res.Trace, err = s.optimizeMIG(ctx, &MIG{g: mig.FromNetwork(net.flat().Remajorize())})
		}
	}
	if err != nil {
		return nil, res, err
	}

	if s.verifyOn {
		check, err := equiv.CheckCtx(ctx, net.flat(), optimized.flat(), equiv.Options{Engine: s.verify})
		if err != nil {
			return nil, res, err
		}
		if !check.Equivalent {
			return nil, res, fmt.Errorf("logic: optimization broke functional equivalence (%s)", check.Detail)
		}
		res.VerifyMethod = string(check.Method)
		res.VerifyDetail = check.Detail
	}

	res.Seconds = time.Since(start).Seconds()
	res.After = optimized.Stats()
	return optimized, res, nil
}

// optimizePartitioned runs the partition subsystem on net's flat view:
// k-way cut, parallel per-window mixed MIG/AIG synthesis, deterministic
// stitch. The output stays in the input's representation family (AIG in →
// AIG out, MIG/netlist in → MIG out). The session script, objective and
// effort configure the per-window MIG candidate; per-pass script checking
// does not apply (windows are verified end-to-end by the whole-run check
// when verification is on).
func (s *Session) optimizePartitioned(ctx context.Context, net Network) (Network, *PartitionReport, Trace, error) {
	if err := s.checkStrategyKind(KindMIG); err != nil {
		return nil, nil, nil, err
	}
	out, rep, err := part.Optimize(ctx, net.flat(), part.Config{
		K:         s.partitions,
		Effort:    s.effort,
		AIGRounds: s.aigRounds,
		Objective: s.objective,
		MIGScript: s.script,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var result Network
	if net.Kind() == KindAIG {
		result = &AIG{g: aig.FromNetwork(out)}
	} else {
		result = &MIG{g: mig.FromNetwork(out)}
	}
	return result, rep, fromTrace(rep.Steps), nil
}

// optimizeMIG builds and runs the MIG pipeline for this configuration.
func (s *Session) optimizeMIG(ctx context.Context, in *MIG) (Network, Trace, error) {
	if err := s.checkStrategyKind(KindMIG); err != nil {
		return nil, nil, err
	}
	var pipe *opt.Pipeline[*mig.MIG]
	if s.script != "" {
		var err error
		pipe, err = mig.ParseScript(s.script)
		if err != nil {
			return nil, nil, err
		}
	} else {
		switch s.objective {
		case "size":
			pipe = mig.SizePipeline(s.effort)
		case "depth":
			pipe = mig.DepthPipeline(s.effort)
		case "activity":
			pipe = mig.ActivityPipeline(s.effort, s.probs)
		case "none":
			pipe = &opt.Pipeline[*mig.MIG]{}
		default: // "flow"
			pipe = mig.FlowPipeline(s.effort)
		}
		if s.fraig {
			pipe.Append(mig.Passes().MustNew("fraig"))
		}
	}
	if s.verifyOn && s.script != "" {
		pipe.Check = s.stepChecker()
	}
	out, trace, err := pipe.RunContext(ctx, in.g)
	if err != nil {
		return nil, fromTrace(trace), err
	}
	return &MIG{g: out}, fromTrace(trace), nil
}

// stepChecker selects the per-pass verifier for scripted runs. The default
// and SAT engines use the incremental cone-diff checker — each step is
// proved against the previous one with a persistent solver, and outputs a
// pass did not touch are discharged structurally — while a forced exact,
// BDD or simulation engine keeps its one-shot per-step semantics.
func (s *Session) stepChecker() opt.Checker {
	switch s.verify {
	case "", "sat":
		return opt.IncrementalChecker(equiv.Options{Engine: s.verify})
	}
	return opt.EquivChecker(equiv.Options{Engine: s.verify})
}

// optimizeAIG builds and runs the AIG pipeline for this configuration:
// the resyn2 recipe plus a final balance (the academic-baseline flow), or
// the session's script.
func (s *Session) optimizeAIG(ctx context.Context, in *AIG) (Network, Trace, error) {
	if err := s.checkStrategyKind(KindAIG); err != nil {
		return nil, nil, err
	}
	var pipe *opt.Pipeline[*aig.AIG]
	if s.script != "" {
		var err error
		pipe, err = aig.ParseScript(s.script)
		if err != nil {
			return nil, nil, err
		}
	} else if s.objective == "none" {
		pipe = &opt.Pipeline[*aig.AIG]{}
	} else {
		pipe = aig.Resyn2Pipeline(s.aigRounds).Append(aig.Passes().MustNew("balance"))
		if s.fraig {
			pipe.Append(aig.Passes().MustNew("fraig"))
		}
	}
	if s.verifyOn && s.script != "" {
		pipe.Check = s.stepChecker()
	}
	out, trace, err := pipe.RunContext(ctx, in.g)
	if err != nil {
		return nil, fromTrace(trace), err
	}
	return &AIG{g: out}, fromTrace(trace), nil
}

// EquivResult reports an equivalence check.
type EquivResult struct {
	Equivalent bool   `json:"equivalent"`
	Method     string `json:"method"`
	Detail     string `json:"detail,omitempty"`
}

// Equivalent checks two Networks for functional equivalence (inputs
// matched positionally) with the given engine ("" or "auto" layers
// exact → BDD → SAT → simulation). Cancellation interrupts SAT-backed
// checks promptly.
func Equivalent(ctx context.Context, a, b Network, engine string) (EquivResult, error) {
	eng, _, err := normalizeVerify(engine)
	if err != nil {
		return EquivResult{}, err
	}
	res, err := equiv.CheckCtx(ctx, a.flat(), b.flat(), equiv.Options{Engine: eng})
	if err != nil {
		return EquivResult{}, err
	}
	return EquivResult{Equivalent: res.Equivalent, Method: string(res.Method), Detail: res.Detail}, nil
}

// ValidateScript compiles a pass script against the given representation's
// registry without running it, returning the located parse error
// (opt.ScriptError) on failure. Services use it to reject bad requests
// before queueing work.
func ValidateScript(kind Kind, script string) error {
	switch kind {
	case KindAIG:
		_, err := aig.ParseScript(script)
		return err
	default:
		_, err := mig.ParseScript(script)
		return err
	}
}
