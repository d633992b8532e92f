package hashed

import (
	"math/rand"
	"testing"
)

func TestTable3Basic(t *testing.T) {
	var tb Table3
	if _, ok := tb.Get([3]uint32{1, 2, 3}); ok {
		t.Fatal("empty table returned a value")
	}
	tb.Put([3]uint32{1, 2, 3}, 7)
	tb.Put([3]uint32{4, 5, 6}, 9)
	if v, ok := tb.Get([3]uint32{1, 2, 3}); !ok || v != 7 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	tb.Put([3]uint32{1, 2, 3}, 8)
	if v, _ := tb.Get([3]uint32{1, 2, 3}); v != 8 {
		t.Fatalf("overwrite failed: %d", v)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if !tb.Delete([3]uint32{1, 2, 3}) || tb.Delete([3]uint32{1, 2, 3}) {
		t.Fatal("delete semantics wrong")
	}
	if _, ok := tb.Get([3]uint32{1, 2, 3}); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := tb.Get([3]uint32{4, 5, 6}); !ok || v != 9 {
		t.Fatal("unrelated key lost after delete")
	}
}

func TestTable3DeleteAbove(t *testing.T) {
	var tb Table3
	k := [3]uint32{10, 20, 30}
	tb.Put(k, 5)
	if tb.DeleteAbove(k, 6) {
		t.Fatal("DeleteAbove removed an entry below the limit")
	}
	if v, ok := tb.Get(k); !ok || v != 5 {
		t.Fatal("guarded delete must keep the entry")
	}
	if !tb.DeleteAbove(k, 5) {
		t.Fatal("DeleteAbove must remove an entry at the limit")
	}
}

func TestTable3PanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put(0) must panic")
		}
	}()
	var tb Table3
	tb.Put([3]uint32{1, 1, 1}, 0)
}

// TestTable3VsMap drives a long random op sequence against a built-in map
// reference, exercising growth, clustering and backward-shift deletion.
func TestTable3VsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tb Table3
	ref := map[[3]uint32]int32{}
	// Small key space to force collisions and dense clusters.
	randKey := func() [3]uint32 {
		return [3]uint32{uint32(rng.Intn(40)), uint32(rng.Intn(40)), uint32(rng.Intn(40))}
	}
	for op := 0; op < 200000; op++ {
		k := randKey()
		switch rng.Intn(3) {
		case 0:
			v := int32(rng.Intn(1000) + 1)
			tb.Put(k, v)
			ref[k] = v
		case 1:
			got := tb.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%v) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 2:
			v, ok := tb.Get(k)
			wv, wok := ref[k]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("op %d: Get(%v) = %d,%v want %d,%v", op, k, v, ok, wv, wok)
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, tb.Len(), len(ref))
		}
	}
	// Full sweep: every reference entry must be retrievable.
	for k, v := range ref {
		if got, ok := tb.Get(k); !ok || got != v {
			t.Fatalf("final: Get(%v) = %d,%v want %d", k, got, ok, v)
		}
	}
}

func TestTable3CloneIndependent(t *testing.T) {
	var tb Table3
	for i := int32(1); i <= 100; i++ {
		tb.Put([3]uint32{uint32(i), uint32(i * 2), uint32(i * 3)}, i)
	}
	cl := tb.Clone()
	tb.Delete([3]uint32{1, 2, 3})
	tb.Put([3]uint32{1000, 0, 0}, 1)
	if v, ok := cl.Get([3]uint32{1, 2, 3}); !ok || v != 1 {
		t.Fatal("clone affected by delete on original")
	}
	if _, ok := cl.Get([3]uint32{1000, 0, 0}); ok {
		t.Fatal("clone affected by put on original")
	}
	if cl.Len() != 100 {
		t.Fatalf("clone Len = %d", cl.Len())
	}
}

func TestTable3Reserve(t *testing.T) {
	var tb Table3
	tb.Reserve(1000)
	capBefore := len(tb.slots)
	for i := int32(1); i <= 1000; i++ {
		tb.Put([3]uint32{uint32(i), 0, 0}, i)
	}
	if len(tb.slots) != capBefore {
		t.Fatalf("table rehashed despite Reserve: %d -> %d", capBefore, len(tb.slots))
	}
}

func TestTable3Reset(t *testing.T) {
	var tb Table3
	for i := int32(1); i <= 50; i++ {
		tb.Put([3]uint32{uint32(i), 0, 0}, i)
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tb.Len())
	}
	if _, ok := tb.Get([3]uint32{1, 0, 0}); ok {
		t.Fatal("entry survived Reset")
	}
	tb.Put([3]uint32{1, 0, 0}, 3)
	if v, ok := tb.Get([3]uint32{1, 0, 0}); !ok || v != 3 {
		t.Fatal("table unusable after Reset")
	}
}

func TestTable2VsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tb Table2
	ref := map[[2]uint32]int32{}
	randKey := func() [2]uint32 {
		return [2]uint32{uint32(rng.Intn(60)), uint32(rng.Intn(60))}
	}
	for op := 0; op < 200000; op++ {
		k := randKey()
		switch rng.Intn(3) {
		case 0:
			v := int32(rng.Intn(1000) + 1)
			tb.Put(k, v)
			ref[k] = v
		case 1:
			got := tb.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%v) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 2:
			v, ok := tb.Get(k)
			wv, wok := ref[k]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("op %d: Get(%v) = %d,%v want %d,%v", op, k, v, ok, wv, wok)
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, tb.Len(), len(ref))
		}
	}
	for k, v := range ref {
		if got, ok := tb.Get(k); !ok || got != v {
			t.Fatalf("final: Get(%v) = %d,%v want %d", k, got, ok, v)
		}
	}
}

func TestTable2Basics(t *testing.T) {
	var tb Table2
	tb.Put([2]uint32{3, 9}, 4)
	cl := tb.Clone()
	tb.Reset()
	if v, ok := cl.Get([2]uint32{3, 9}); !ok || v != 4 {
		t.Fatal("clone lost entry")
	}
	if !cl.DeleteAbove([2]uint32{3, 9}, 4) {
		t.Fatal("DeleteAbove at limit must delete")
	}
	cl.Reserve(100)
	if cl.Len() != 0 {
		t.Fatal("Reserve changed Len")
	}
}

func BenchmarkTable3Get(b *testing.B) {
	var tb Table3
	const n = 4096
	for i := int32(1); i <= n; i++ {
		tb.Put([3]uint32{uint32(i), uint32(i >> 2), uint32(i >> 4)}, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := int32(i%n) + 1
		if _, ok := tb.Get([3]uint32{uint32(j), uint32(j >> 2), uint32(j >> 4)}); !ok {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkTable3PutDelete(b *testing.B) {
	var tb Table3
	const n = 4096
	for i := int32(1); i <= n; i++ {
		tb.Put([3]uint32{uint32(i), 0, 0}, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := [3]uint32{uint32(i%n) + n + 1, 1, 2}
		tb.Put(k, int32(n)+1)
		tb.Delete(k)
	}
}
