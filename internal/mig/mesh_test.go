package mig_test

import (
	"testing"

	"repro/internal/mig"
	"repro/logic"
	"repro/logic/bench"
)

// meshMIG is the cleaned MIG of bench.Mesh(n), as a Session builds it.
func meshMIG(n int) *mig.MIG {
	return mig.FromNetwork(logic.Flat(bench.Mesh(n)).Remajorize()).Cleanup()
}

// TestLookupCostMatchesBuildMesh is TestLookupCostMatchesBuild's sweep on
// Mesh(3000), which this package's internal tests cannot import.
func TestLookupCostMatchesBuildMesh(t *testing.T) {
	st := mig.SweepPricing(t, meshMIG(3000))
	t.Logf("Mesh(3000): %+v", *st)
	if st.Folded == 0 || st.MidCone == 0 || st.Rejected == 0 {
		t.Errorf("sweep missed a case: %+v", *st)
	}
}

// BenchmarkEliminateMesh measures one elimination sweep on a mesh large
// enough that strash lookups miss the cache.
func BenchmarkEliminateMesh(b *testing.B) {
	m := meshMIG(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.EliminatePass(3); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}
