package opt

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunContextCancelsBetweenPasses(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	p := &Pipeline[fake]{Passes: []Pass[fake]{
		New("first", func(g fake) fake { ran++; cancel(); return g }),
		New("second", func(g fake) fake { ran++; return g }),
	}}
	got, trace, err := p.RunContext(ctx, fake{size: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d passes, want 1 (second must not start)", ran)
	}
	if len(trace) != 1 || got.size != 10 {
		t.Fatalf("trace %d steps, got %+v", len(trace), got)
	}
}

func TestRunContextCtxPass(t *testing.T) {
	// A ctx pass observes cancellation mid-pass and aborts the run.
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pipeline[fake]{Passes: []Pass[fake]{
		NewCtx("ctxpass", func(c context.Context, g fake) (fake, error) {
			cancel()
			return g, c.Err()
		}),
	}}
	_, _, err := p.RunContext(ctx, fake{size: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Under the background context the same pipeline completes.
	if _, _, err := p.Run(fake{size: 10}); err != nil {
		// cancel() above cancelled the other context, not this run's.
		t.Fatalf("background run failed: %v", err)
	}
}

func TestRenamePreservesCtxAwareness(t *testing.T) {
	saw := false
	p := Rename("label", NewCtx("orig", func(ctx context.Context, g fake) (fake, error) {
		saw = ctx.Value(workersKey{}) != nil
		return g, nil
	}))
	if p.Name() != "label" {
		t.Fatalf("name = %q", p.Name())
	}
	cp, ok := p.(CtxPass[fake])
	if !ok {
		t.Fatal("Rename dropped context awareness")
	}
	if _, err := cp.ApplyCtx(ContextWithWorkers(context.Background(), 4), fake{}); err != nil {
		t.Fatal(err)
	}
	if !saw {
		t.Fatal("renamed pass did not receive the caller's context")
	}
}

func TestBestAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cycles := 0
	b := Best("b", 100, func(cand, best fake) bool { return cand.size < best.size },
		func(cycle int) []Pass[fake] {
			return []Pass[fake]{New("step", func(g fake) fake {
				cycles++
				if cycles == 3 {
					cancel()
				}
				g.size--
				return g
			})}
		})
	got, err := b.(CtxPass[fake]).ApplyCtx(ctx, fake{size: 100})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if cycles > 4 {
		t.Fatalf("ran %d cycles after cancellation", cycles)
	}
	// The incumbent returned alongside the error is the best completed one.
	if got.size > 100 {
		t.Fatalf("got %+v", got)
	}
}

func TestForEachCtx(t *testing.T) {
	// Uncancellable context: every index runs exactly once, with at most
	// jobs calls in flight at any moment.
	for _, n := range []int{0, 1, 7, 1000} {
		for _, jobs := range []int{1, 2, 3, 8} {
			counts := make([]atomic.Int32, n)
			var active, peak atomic.Int32
			err := ForEachCtx(context.Background(), n, jobs, func(i int) {
				cur := active.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				counts[i].Add(1)
				runtime.Gosched()
				active.Add(-1)
			})
			if err != nil {
				t.Fatalf("n=%d jobs=%d: %v", n, jobs, err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d jobs=%d: index %d ran %d times", n, jobs, i, c)
				}
			}
			if p := peak.Load(); int(p) > jobs {
				t.Fatalf("n=%d jobs=%d: %d calls ran at once", n, jobs, p)
			}
		}
	}
	// Cancel mid-sweep: the sweep stops early and reports the error.
	for _, jobs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEachCtx(ctx, 10000, jobs, func(i int) {
			if ran.Add(1) == 5 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d err = %v", jobs, err)
		}
		if ran.Load() == 10000 {
			t.Fatalf("jobs=%d: cancellation did not stop the sweep", jobs)
		}
	}
}

// A panic in a worker is re-raised on the calling goroutine with its
// original value, after every worker has stopped.
func TestForEachCtxPanicPropagates(t *testing.T) {
	before := runtime.NumGoroutine()
	var ran atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		ForEachCtx(context.Background(), 1000, 4, func(i int) {
			ran.Add(1)
			if i == 37 {
				panic("boom at 37")
			}
			time.Sleep(50 * time.Microsecond)
		})
		return nil
	}()
	if got != "boom at 37" {
		t.Fatalf("recovered %v, want the worker's panic value", got)
	}
	if ran.Load() == 1000 {
		t.Fatal("the sweep kept handing out work after the panic")
	}
	// Workers have returned before ForEachCtx re-panics; give their
	// goroutines a moment to be reaped.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before the sweep", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestContextWithWorkers(t *testing.T) {
	if got := WorkersCtx(context.Background()); got != Workers() {
		t.Fatalf("fallback = %d, want process budget %d", got, Workers())
	}
	ctx := ContextWithWorkers(context.Background(), 7)
	if got := WorkersCtx(ctx); got != 7 {
		t.Fatalf("ctx budget = %d", got)
	}
	if got := WorkersCtx(ContextWithWorkers(context.Background(), -3)); got != 1 {
		t.Fatalf("clamped budget = %d", got)
	}
}

// BenchmarkForEachCtx measures the per-item dispatch overhead of the
// worker pool: 100k no-op items at two workers.
func BenchmarkForEachCtx(b *testing.B) {
	const items = 100_000
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ForEachCtx(ctx, items, 2, func(int) {}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
}
