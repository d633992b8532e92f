package bench_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/logic"
	"repro/logic/bench"
)

// TestMeshMIGScript3Pinned fixes the exact BLIF output of the migscript3
// flow (two window-parallel rewrite-npn passes among algebraic ones) on
// Mesh(3000) at several worker counts. The window evaluation is scheduled
// differently for every count, so a hash that moves with the worker count
// means scheduling leaked into the result; one that moves everywhere means
// the flow's decisions changed.
func TestMeshMIGScript3Pinned(t *testing.T) {
	const want = "e4b234359829a04227ba864d0257646c218048d95c6613348c87dc2ab1682625"
	net := bench.Mesh(3000)
	for _, jobs := range []int{1, 2, 8} {
		sess, err := logic.NewSession(logic.WithStrategy("migscript3"), logic.WithWorkers(jobs))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := sess.Optimize(context.Background(), net)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.EncodeBLIF())))
		if got != want {
			t.Errorf("jobs=%d: output sha256 %s, want %s", jobs, got, want)
		}
	}
}
