// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benchmarks for the headline design
// choices (MIG depth optimization vs the AIG and BDS baselines).
//
//	go test -bench=Table1Top -benchmem .       # Table I-top per circuit
//	go test -bench=Table1Bottom -benchmem .    # Table I-bottom per circuit
//	go test -bench=Fig3 .                      # Fig. 3 centroids
//	go test -bench=Fig4 .                      # Fig. 4 centroids
//	go test -bench=Compress .                  # the in-text compression run
//	go test -bench=Ablation .                  # design-choice ablations
//
// Benchmarks report the paper's metrics as custom units (size, depth,
// activity, area, delay, power) so the regenerated rows can be read
// straight from the -bench output.
package repro_test

import (
	"testing"

	"repro/internal/aig"
	"repro/internal/mapping"
	"repro/internal/mcnc"
	"repro/internal/mig"
	"repro/internal/netlist"
	"repro/logic"
	"repro/logic/bench"
)

// optCircuits is the Table I benchmark list. The big four (bigkey, clma,
// s38417, C6288) dominate runtime; they are still included because the
// table requires them.
var optCircuits = mcnc.Names()

func getBench(b *testing.B, name string) *netlist.Network {
	b.Helper()
	n, err := mcnc.Generate(name)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkTable1Top regenerates Table I-top: for every circuit, the MIG,
// AIG and BDS optimization metrics.
func BenchmarkTable1Top(b *testing.B) {
	for _, name := range optCircuits {
		b.Run(name, func(b *testing.B) {
			n := getBench(b, name)
			var row bench.OptRow
			for i := 0; i < b.N; i++ {
				row = bench.RunOptRow(logic.FromNetlist(n), bench.Config{Effort: 3, AIGRounds: 2})
			}
			b.ReportMetric(float64(row.MIG.Size), "mig-size")
			b.ReportMetric(float64(row.MIG.Depth), "mig-depth")
			b.ReportMetric(row.MIG.Activity, "mig-activity")
			b.ReportMetric(float64(row.AIG.Size), "aig-size")
			b.ReportMetric(float64(row.AIG.Depth), "aig-depth")
			if row.BDS.OK {
				b.ReportMetric(float64(row.BDS.Size), "bds-size")
				b.ReportMetric(float64(row.BDS.Depth), "bds-depth")
			}
		})
	}
}

// BenchmarkTable1Bottom regenerates Table I-bottom: the three synthesis
// flows per circuit.
func BenchmarkTable1Bottom(b *testing.B) {
	for _, name := range optCircuits {
		b.Run(name, func(b *testing.B) {
			n := getBench(b, name)
			var row bench.SynthRow
			for i := 0; i < b.N; i++ {
				row = bench.RunSynthRow(logic.FromNetlist(n), bench.Config{Effort: 3, AIGRounds: 2})
			}
			b.ReportMetric(row.MIG.Area, "mig-area")
			b.ReportMetric(row.MIG.Delay*1000, "mig-delay-ps")
			b.ReportMetric(row.MIG.Power, "mig-power")
			b.ReportMetric(row.AIG.Area, "aig-area")
			b.ReportMetric(row.AIG.Delay*1000, "aig-delay-ps")
			b.ReportMetric(row.CST.Area, "cst-area")
			b.ReportMetric(row.CST.Delay*1000, "cst-delay-ps")
		})
	}
}

// BenchmarkFig3Space regenerates the Fig. 3 centroids (the average point of
// each series in the size/depth/activity space).
func BenchmarkFig3Space(b *testing.B) {
	var rows []bench.OptRow
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range optCircuits {
			rows = append(rows, bench.RunOptRow(logic.FromNetlist(getBench(b, name)), bench.Config{Effort: 3, AIGRounds: 2}))
		}
	}
	report := func(label string, get func(bench.OptRow) bench.OptMetrics) {
		var sz, dp, ac float64
		cnt := 0
		for _, r := range rows {
			m := get(r)
			if !m.OK {
				continue
			}
			sz += float64(m.Size)
			dp += float64(m.Depth)
			ac += m.Activity
			cnt++
		}
		if cnt == 0 {
			return
		}
		b.ReportMetric(sz/float64(cnt), label+"-size")
		b.ReportMetric(dp/float64(cnt), label+"-depth")
		b.ReportMetric(ac/float64(cnt), label+"-activity")
	}
	report("mig", func(r bench.OptRow) bench.OptMetrics { return r.MIG })
	report("aig", func(r bench.OptRow) bench.OptMetrics { return r.AIG })
	report("bds", func(r bench.OptRow) bench.OptMetrics { return r.BDS })
}

// BenchmarkFig4Space regenerates the Fig. 4 centroids (area/delay/power).
func BenchmarkFig4Space(b *testing.B) {
	var rows []bench.SynthRow
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range optCircuits {
			rows = append(rows, bench.RunSynthRow(logic.FromNetlist(getBench(b, name)), bench.Config{Effort: 3, AIGRounds: 2}))
		}
	}
	report := func(label string, get func(bench.SynthRow) bench.SynthResult) {
		var ar, dl, pw float64
		for _, r := range rows {
			m := get(r)
			ar += m.Area
			dl += m.Delay
			pw += m.Power
		}
		n := float64(len(rows))
		b.ReportMetric(ar/n, label+"-area")
		b.ReportMetric(dl/n*1000, label+"-delay-ps")
		b.ReportMetric(pw/n, label+"-power")
	}
	report("mig", func(r bench.SynthRow) bench.SynthResult { return r.MIG })
	report("aig", func(r bench.SynthRow) bench.SynthResult { return r.AIG })
	report("cst", func(r bench.SynthRow) bench.SynthResult { return r.CST })
}

// BenchmarkCompress regenerates the in-text large-compression-circuit
// experiment at a scaled size (the paper's instance had 0.3M nodes; the
// scale is a flag-free compromise so the bench completes quickly — the
// migbench tool runs arbitrary sizes).
func BenchmarkCompress(b *testing.B) {
	n := mcnc.Compress(600)
	var mm, am bench.OptMetrics
	for i := 0; i < b.N; i++ {
		_, mm = bench.MIGOptimize(n, 2)
		_, am = bench.AIGOptimize(n, 1)
	}
	b.ReportMetric(float64(mm.Size), "mig-size")
	b.ReportMetric(float64(mm.Depth), "mig-depth")
	b.ReportMetric(float64(am.Size), "aig-size")
	b.ReportMetric(float64(am.Depth), "aig-depth")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationDepthNoReshape quantifies the contribution of the Ψ
// reshape step to depth optimization (Alg. 2 without the reshape phase is
// pure push-up).
func BenchmarkAblationDepthNoReshape(b *testing.B) {
	// A linear parity chain: push-up alone cannot restructure XOR cascades;
	// the Ψ.S substitution reshape can (the paper's Fig. 2(b) effect).
	m := mig.New("parity8")
	acc := m.AddInput("x0")
	for i := 1; i < 8; i++ {
		acc = m.Xor(acc, m.AddInput("x"))
	}
	m.AddOutput("p", acc)
	var full, bare int
	for i := 0; i < b.N; i++ {
		full = runCanned(b, mig.DepthPipeline(3), m).Depth()
		// Pure push-up: no reshape, no elimination between cycles.
		cur := m.Cleanup()
		for it := 0; it < 64; it++ {
			next := cur.PushUpPass(false)
			if next.Depth() >= cur.Depth() {
				break
			}
			cur = next
		}
		bare = cur.Depth()
	}
	b.ReportMetric(float64(full), "depth-with-reshape")
	b.ReportMetric(float64(bare), "depth-pushup-only")
}

// BenchmarkAblationSizeNoRelevance quantifies the Ψ.R window in the size
// optimizer (EliminatePass with window 0 disables relevance).
func BenchmarkAblationSizeNoRelevance(b *testing.B) {
	// A bank of reconvergent cells shaped like the paper's Fig. 2(a):
	// h_i = M(x_i, M(x_i, z_i', w_i), M(x_i, y_i, z_i)) — each reduces to
	// x_i, but only the relevance rule Ψ.R can see it.
	m := mig.New("fig2a-bank")
	for i := 0; i < 32; i++ {
		x := m.AddInput("x")
		y := m.AddInput("y")
		z := m.AddInput("z")
		w := m.AddInput("w")
		h := m.Maj(x, m.Maj(x, z.Not(), w), m.Maj(x, y, z))
		m.AddOutput("h", m.Maj(h, y, w.Not()))
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		with = runCanned(b, mig.SizePipeline(3), m).Size()
		e := m.Cleanup()
		for c := 0; c < 3; c++ {
			e = e.EliminatePass(0)
		}
		without = e.Size()
	}
	b.ReportMetric(float64(with), "size-with-relevance")
	b.ReportMetric(float64(without), "size-without-relevance")
}

// BenchmarkAblationMapperNoMaj quantifies the §V.B claim that part of the
// MIG flow's synthesis advantage comes from native MAJ3/MIN3 cells: the
// same optimized MIG is mapped with and without majority cells.
func BenchmarkAblationMapperNoMaj(b *testing.B) {
	n := getBench(b, "cla")
	m, _ := bench.MIGOptimize(n, 3)
	net := m.ToNetwork()
	var withMaj, noMaj *mapping.Result
	for i := 0; i < b.N; i++ {
		withMaj = mapping.Map(net, mapping.Default22nm(), nil)
		noMaj = mapping.Map(net, mapping.NoMajLibrary(), nil)
	}
	b.ReportMetric(withMaj.Area, "area-with-maj-cells")
	b.ReportMetric(noMaj.Area, "area-no-maj-cells")
	b.ReportMetric(withMaj.Delay*1000, "delay-ps-with-maj-cells")
	b.ReportMetric(noMaj.Delay*1000, "delay-ps-no-maj-cells")
}

// BenchmarkAblationAIGBaseline sanity-checks that the AIG baseline is doing
// real work (resyn2 vs plain strashing) so the MIG comparison is fair.
func BenchmarkAblationAIGBaseline(b *testing.B) {
	n := getBench(b, "dalu")
	var raw, opt int
	for i := 0; i < b.N; i++ {
		a := aig.FromNetwork(n)
		raw = a.Size()
		opt = runCanned(b, aig.Resyn2Pipeline(2), a).Size()
	}
	b.ReportMetric(float64(raw), "aig-raw-size")
	b.ReportMetric(float64(opt), "aig-resyn2-size")
}

// --- Core micro-benchmarks ----------------------------------------------

// BenchmarkMIGConstruction measures strashed MIG construction throughput.
func BenchmarkMIGConstruction(b *testing.B) {
	n := getBench(b, "C6288")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mig.FromNetwork(n)
	}
}

// BenchmarkMIGDepthOpt measures the Alg. 2 optimizer on the multiplier.
func BenchmarkMIGDepthOpt(b *testing.B) {
	m := mig.FromNetwork(getBench(b, "C6288"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCanned(b, mig.DepthPipeline(1), m)
	}
}

// BenchmarkAIGResyn2 measures the baseline optimizer on the multiplier.
func BenchmarkAIGResyn2(b *testing.B) {
	a := aig.FromNetwork(getBench(b, "C6288"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCanned(b, aig.Resyn2Pipeline(1), a)
	}
}

// BenchmarkMapping measures the technology mapper.
func BenchmarkMapping(b *testing.B) {
	m, _ := bench.MIGOptimize(getBench(b, "C6288"), 2)
	net := m.ToNetwork()
	lib := mapping.Default22nm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapping.Map(net, lib, nil)
	}
}

// BenchmarkAblationMajorityNative maps the same optimized designs onto the
// CMOS and the majority-native libraries (the paper's §I motivation): the
// MIG/AIG area ratio must improve when majority is the native gate.
func BenchmarkAblationMajorityNative(b *testing.B) {
	n := getBench(b, "my_adder")
	m, _ := bench.MIGOptimize(n, 3)
	a, _ := bench.AIGOptimize(n, 2)
	migNet, aigNet := m.ToNetwork(), a.ToNetwork()
	var cmosRatio, nanoRatio float64
	for i := 0; i < b.N; i++ {
		cmos, nano := mapping.Default22nm(), mapping.MajorityNative()
		cmosRatio = mapping.Map(migNet, cmos, nil).Area / mapping.Map(aigNet, cmos, nil).Area
		nanoRatio = mapping.Map(migNet, nano, nil).Area / mapping.Map(aigNet, nano, nil).Area
	}
	b.ReportMetric(cmosRatio, "mig/aig-area-cmos")
	b.ReportMetric(nanoRatio, "mig/aig-area-majnative")
}
