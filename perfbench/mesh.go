package main

// The two mesh workloads: one large synthetic design per batch, decoded
// from BLIF, optimized through logic.Session at 2 workers and encoded back.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/aig"
	"repro/internal/blif"
	"repro/internal/mig"
	"repro/internal/netlist"
	"repro/internal/opt"
	"repro/internal/part"
	"repro/internal/sweep"
	"repro/logic"
	"repro/logic/bench"
	"repro/logic/script"
)

type meshWorkload struct {
	seed  uint64
	gates int // requested mesh size after the seed's nudge
	src   string
	// options configure the session under test, given the worker count.
	options func(workers int) []logic.Option
	// optimize is the traced, 1-worker decomposition of the session's
	// Optimize on a decoded flat netlist.
	optimize func(tr *traceRun, flat *netlist.Network) (*mig.MIG, error)
}

// meshGates nudges a nominal gate count by the seed, within ±1%.
func meshGates(nominal int, seed uint64) int {
	rng := splitmix(seed)
	span := nominal / 100
	return nominal - span + int(rng.next()%uint64(2*span+1))
}

const meshMIGStrategy = "migscript3"

func newMeshMIG(seed uint64) *meshWorkload {
	return &meshWorkload{
		seed:  seed,
		gates: meshGates(80000, seed),
		options: func(workers int) []logic.Option {
			return []logic.Option{logic.WithStrategy(meshMIGStrategy), logic.WithWorkers(workers)}
		},
		optimize: func(tr *traceRun, flat *netlist.Network) (*mig.MIG, error) {
			var g *mig.MIG
			tr.rec.do("netlist", "convert", func() { g = mig.FromNetwork(flat.Remajorize()) })
			st, _ := script.Lookup(meshMIGStrategy)
			pipe, err := mig.ParseScript(st.Script)
			if err != nil {
				return nil, err
			}
			ctx := opt.ContextWithWorkers(sweep.ContextWithPool(context.Background(), sweep.NewCexPool(0)), 1)
			for _, p := range pipe.Passes {
				if g, err = opt.Apply(ctx, tracedPass(tr.rec, "mig", p, false), g); err != nil {
					return nil, err
				}
			}
			return g, nil
		},
	}
}

// Partitioned-run settings of mesh-partition.
const (
	meshPartK      = 8
	meshPartEffort = 1
	meshAIGRounds  = 2 // the session default
)

func newMeshPartition(seed uint64) *meshWorkload {
	return &meshWorkload{
		seed:  seed,
		gates: meshGates(5000, seed),
		options: func(workers int) []logic.Option {
			return []logic.Option{
				logic.WithPartitions(meshPartK), logic.WithEffort(meshPartEffort),
				logic.WithObjective("flow"), logic.WithWorkers(workers),
			}
		},
		optimize: optimizePartitionTraced,
	}
}

func (m *meshWorkload) setup() error {
	m.src = bench.Mesh(m.gates).EncodeBLIF()
	return nil
}

func (m *meshWorkload) close() {}

func (m *meshWorkload) batch() *batch {
	b := &batch{attempted: 1, outputs: map[string]string{}}
	sess, err := logic.NewSession(m.options(2)...)
	if err != nil {
		panic(err) // fixed, valid options
	}
	resetPeakRSS()
	start := time.Now()
	text, err := func() (string, error) {
		net, err := logic.DecodeBLIFReader(strings.NewReader(m.src))
		if err != nil {
			return "", err
		}
		out, _, err := sess.Optimize(context.Background(), net)
		if err != nil {
			return "", err
		}
		return out.EncodeBLIF(), nil
	}()
	b.wall = time.Since(start).Seconds()
	b.peakRSS = peakRSSMB()
	b.latencies = []float64{b.wall}
	if err == nil {
		err = m.check(b, text)
	}
	if err != nil {
		b.failed, b.latencies[0] = 1, math.Inf(1)
		logf("%s: %v", m.name(), err)
	}
	return b
}

func (m *meshWorkload) name() string { return fmt.Sprintf("mesh(%d)", m.gates) }

// check simulates the output against the input and records its size,
// depth and hash.
func (m *meshWorkload) check(b *batch, text string) error {
	if err := equivalent(m.src, text, m.seed); err != nil {
		b.wrong = 1
		return fmt.Errorf("wrong output: %v", err)
	}
	out, err := logic.DecodeBLIF(text)
	if err != nil {
		b.wrong = 1
		return fmt.Errorf("output does not decode: %v", err)
	}
	b.outSize, b.outDepth = out.Size(), out.Depth()
	b.outputs[m.name()] = sha(text)
	return nil
}

func (m *meshWorkload) traced(ref *batch) *traceRun {
	tr := &traceRun{rec: newRecorder(), attempted: 1}
	start := time.Now()
	text, err := func() (string, error) {
		var net *logic.Netlist
		var err error
		tr.rec.do("blif", "decode", func() { net, err = logic.DecodeBLIFReader(strings.NewReader(m.src)) })
		if err != nil {
			return "", err
		}
		g, err := m.optimize(tr, logic.Flat(net))
		if err != nil {
			return "", err
		}
		var flat *netlist.Network
		tr.rec.do("netlist", "convert", func() { flat = g.ToNetwork() })
		var text string
		tr.rec.do("blif", "encode", func() { text = blif.Write(flat) })
		return text, nil
	}()
	tr.wall = time.Since(start).Seconds()
	switch want := ref.outputs[m.name()]; {
	case err != nil:
		logf("%s traced: %v", m.name(), err)
		tr.failed = 1
	case sha(text) != want:
		logf("%s: 1-worker output differs from the 2-worker output", m.name())
		tr.failed, tr.wrong = 1, 1
	}
	layers := layerMetrics(tr.rec, len(m.src))
	for k, v := range tr.layers {
		layers[k] = v
	}
	tr.layers = layers
	return tr
}

// optimizePartitionTraced runs the partition engine at 1 worker with each
// candidate flow replaced by the same passes wrapped in spans. The MIG leg
// is the canned flow pass by pass; the AIG leg is resyn2 rebuilt from its
// balance/rewrite/refactor passes so each is timed on its own. Byte
// identity with the untraced run proves the rebuilt flows are the same.
func optimizePartitionTraced(tr *traceRun, flat *netlist.Network) (*mig.MIG, error) {
	rec := tr.rec
	migScript, aigScript := registerTracedFlows(rec)
	var out *netlist.Network
	var rep *part.Report
	var err error
	rec.do("part", "optimize", func() {
		out, rep, err = part.Optimize(context.Background(), flat, part.Config{
			K: meshPartK, Effort: meshPartEffort, AIGRounds: meshAIGRounds, Objective: "flow",
			Workers: 1, MIGScript: migScript, AIGScript: aigScript,
		})
	})
	if err != nil {
		return nil, err
	}
	var g *mig.MIG
	rec.do("netlist", "convert", func() { g = mig.FromNetwork(out) })

	// Leg times per window, from the pass spans inside the partition run.
	type legs struct{ mig, aig float64 }
	byWindow := make([]legs, len(rep.Parts)+1)
	for _, s := range rec.spans {
		switch {
		case s.window == 0 || s.window >= len(byWindow):
		case s.layer == "mig":
			byWindow[s.window].mig += s.dur.Seconds()
		case s.layer == "aig":
			byWindow[s.window].aig += s.dur.Seconds()
		}
	}
	var migLeg, aigLeg, lost, maxWindow, aigWins float64
	for i, p := range rep.Parts {
		l := byWindow[i+1]
		migLeg += l.mig
		aigLeg += l.aig
		maxWindow = math.Max(maxWindow, l.mig+l.aig)
		if p.Rep == "aig" {
			aigWins++
			lost += l.mig
		} else {
			lost += l.aig
		}
	}
	partSelf := rec.selfTime("part", "")
	tr.layers = map[string]float64{
		"part.partition_s":    rep.PartitionSeconds,
		"part.stitch_s":       rep.StitchSeconds,
		"part.other_s":        partSelf - rep.PartitionSeconds - rep.StitchSeconds,
		"part.mig_leg_s":      migLeg,
		"part.aig_leg_s":      aigLeg,
		"part.max_window_s":   maxWindow,
		"part.lost_leg_ratio": lost / (migLeg + aigLeg),
		"part.aig_windows":    aigWins,
	}
	return g, nil
}

// registerTracedFlows registers span-wrapped copies of the partition
// engine's candidate flows as passes and returns the MIG and AIG scripts
// that run them. Traced runs happen once per process, so the names are
// registered once.
func registerTracedFlows(rec *recorder) (migScript, aigScript string) {
	const prefix = "perfbench-"
	var names []string
	for i := range mig.FlowPipeline(meshPartEffort).Passes {
		name := fmt.Sprintf("%smig-%d", prefix, i)
		names = append(names, name)
		mig.Passes().Register(name, "", "benchmark span wrapper",
			func([]int) (opt.Pass[*mig.MIG], error) {
				return tracedPass(rec, "mig", mig.FlowPipeline(meshPartEffort).Passes[i], i == 0), nil
			})
	}

	reg := aig.Passes()
	pass := func(name string) opt.Pass[*aig.AIG] { return tracedPass(rec, "aig", reg.MustNew(name), false) }
	// resyn2 as aig.Resyn2Pipeline builds it: best of the rounds by (size, depth).
	resyn2 := func([]int) (opt.Pass[*aig.AIG], error) {
		bySizeDepth := func(c, b *aig.AIG) bool {
			return c.Size() < b.Size() || (c.Size() == b.Size() && c.Depth() < b.Depth())
		}
		return opt.Best("resyn2", meshAIGRounds, bySizeDepth, func(int) []opt.Pass[*aig.AIG] {
			return []opt.Pass[*aig.AIG]{pass("balance"), pass("rewrite"), pass("refactor"), pass("balance"), pass("rewrite")}
		}), nil
	}
	reg.Register(prefix+"aig-cleanup", "", "benchmark span wrapper",
		func([]int) (opt.Pass[*aig.AIG], error) { return pass("cleanup"), nil })
	reg.Register(prefix+"aig-resyn2", "", "benchmark span wrapper", resyn2)
	reg.Register(prefix+"aig-balance", "", "benchmark span wrapper",
		func([]int) (opt.Pass[*aig.AIG], error) { return pass("balance"), nil })
	return strings.Join(names, "; "), prefix + "aig-cleanup; " + prefix + "aig-resyn2; " + prefix + "aig-balance"
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}
