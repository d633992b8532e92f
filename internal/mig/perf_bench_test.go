package mig

// Micro-benchmarks for the data-plane hot paths: structural hashing,
// topological rebuilds, and the cut-based rewriting pass. Run with
// -benchmem / b.ReportAllocs() to track the allocation counts the
// allocation-free core is meant to eliminate.

import (
	"testing"

	"repro/internal/mcnc"
)

func benchMIG(b *testing.B, name string) *MIG {
	b.Helper()
	n, err := mcnc.Generate(name)
	if err != nil {
		b.Fatal(err)
	}
	return FromNetwork(n)
}

// BenchmarkStrashLookup measures hit-path structural hashing: every Maj call
// re-resolves an existing node.
func BenchmarkStrashLookup(b *testing.B) {
	m := benchMIG(b, "C6288")
	type triple struct{ a, bb, c Signal }
	var keys []triple
	for i := 0; i < m.NumNodes(); i++ {
		if m.IsMaj(MakeSignal(i, false)) {
			f := m.Fanins(i)
			keys = append(keys, triple{f[0], f[1], f[2]})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if s := m.Maj(k.a, k.bb, k.c); s.Node() == 0 {
			b.Fatal("lookup lost node")
		}
	}
}

// BenchmarkStrashBuild measures miss-path hashing: constructing a fresh MIG
// node by node (insert-heavy, includes table growth).
func BenchmarkStrashBuild(b *testing.B) {
	src := benchMIG(b, "C6288")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := src.Cleanup(); c.Size() == 0 {
			b.Fatal("empty rebuild")
		}
	}
}

// BenchmarkRebuildWith measures one identity rebuild sweep (the skeleton of
// every optimization pass).
func BenchmarkRebuildWith(b *testing.B) {
	m := benchMIG(b, "C6288")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := m.rebuildWith(func(out *MIG, oldIdx int, x, y, z Signal) Signal {
			return out.Maj(x, y, z)
		})
		if out.Size() == 0 {
			b.Fatal("empty rebuild")
		}
	}
}

// BenchmarkEliminatePass measures the Algorithm 1 elimination sweep,
// including candidate probing with checkpoint/rollback.
func BenchmarkEliminatePass(b *testing.B) {
	m := benchMIG(b, "b9")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.EliminatePass(3); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkCutEnumeration measures 4-input cut enumeration over a full MCNC
// circuit through the compatibility API (materializes a [][]Cut forest).
func BenchmarkCutEnumeration(b *testing.B) {
	m := benchMIG(b, "C6288")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cuts := m.EnumerateCuts(4, 5)
		if len(cuts) != m.NumNodes() {
			b.Fatal("bad cut count")
		}
	}
}

// BenchmarkCutSetCold measures arena-backed enumeration from scratch (the
// cache is reset every iteration).
func BenchmarkCutSetCold(b *testing.B) {
	m := benchMIG(b, "C6288")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InvalidateCuts()
		cuts := m.CutSet(4, 5)
		if cuts.NumNodes() != m.NumNodes() {
			b.Fatal("bad cut count")
		}
	}
}

// BenchmarkCutSetWarm measures a cache hit on an unchanged graph (the
// inter-pass case the cut cache exists for).
func BenchmarkCutSetWarm(b *testing.B) {
	m := benchMIG(b, "C6288")
	m.CutSet(4, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cuts := m.CutSet(4, 5)
		if cuts.NumNodes() != m.NumNodes() {
			b.Fatal("bad cut count")
		}
	}
}

// BenchmarkRewritePass measures the full cut-based functional rewriting pass
// (enumeration, truth tables, candidate synthesis, commit).
func BenchmarkRewritePass(b *testing.B) {
	m := benchMIG(b, "b9")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.RewritePass(); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}

// benchWindowRewrite measures the window-parallel rewrite at a worker
// count; the serial/parallel pair quantifies the scaling.
func benchWindowRewrite(b *testing.B, jobs int) {
	m := benchMIG(b, "s38417")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.WindowRewritePass(4, 5, jobs); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkWindowRewriteJobs1(b *testing.B) { benchWindowRewrite(b, 1) }
func BenchmarkWindowRewriteJobs4(b *testing.B) { benchWindowRewrite(b, 4) }
func BenchmarkWindowRewriteJobs8(b *testing.B) { benchWindowRewrite(b, 8) }

// benchRewriteNPN measures the exact NPN rewriting pass on the same circuit
// and worker counts as benchWindowRewrite.
func benchRewriteNPN(b *testing.B, jobs int) {
	m := benchMIG(b, "s38417")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.NPNRewritePass(4, 5, jobs); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkRewriteNPNJobs1(b *testing.B) { benchRewriteNPN(b, 1) }
func BenchmarkRewriteNPNJobs2(b *testing.B) { benchRewriteNPN(b, 2) }
