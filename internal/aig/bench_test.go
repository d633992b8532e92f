package aig_test

import (
	"testing"

	"repro/internal/aig"
	"repro/logic"
	"repro/logic/bench"
)

var rewriteSink *aig.AIG

// BenchmarkAIGRewrite is one rewrite pass over a partition-window-sized
// mesh (bench.Mesh(700) is about one window of the 8-way mesh(5000) run).
// Every iteration starts memo-less, since the memo lives on the graph a
// pass builds, so it pins one pass's factoring and allocation cost. Run
// with -benchmem.
func BenchmarkAIGRewrite(b *testing.B) {
	a := aig.FromNetwork(logic.Flat(bench.Mesh(700))).Cleanup()
	a.Rewrite() // enumerate the input's cuts once, outside the timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewriteSink = a.Rewrite()
	}
}
