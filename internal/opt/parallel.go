package opt

// Worker-pool plumbing for parallel-safe passes. The batch engine
// (internal/synth) distributes whole circuits over workers; passes that
// parallelize *inside* one graph (the MIG's window-parallel rewriting) need
// the same machinery below the pipeline layer, so it lives here, free of
// representation dependencies.
//
// The process-wide worker budget is configured once at startup by the CLIs
// (migbench/mighty -jobs) and read by registered passes when a pipeline is
// built or run. Parallel passes must stay deterministic: the worker count
// may change how work is scheduled, never what is computed.

import (
	"context"
	"sync"
	"sync/atomic"
)

// workerBudget is the process-wide degree of parallelism for parallel-safe
// passes; 1 = serial.
var workerBudget atomic.Int64

// SetWorkers configures the worker budget for parallel-safe passes.
// Values below 1 are clamped to 1 (serial).
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	workerBudget.Store(int64(n))
}

// Workers returns the configured worker budget (at least 1).
func Workers() int {
	if n := workerBudget.Load(); n > 1 {
		return int(n)
	}
	return 1
}

// workersKey carries a per-context worker budget (see ContextWithWorkers).
type workersKey struct{}

// ContextWithWorkers returns a context carrying a worker budget for
// parallel-safe passes, overriding the process-wide SetWorkers budget for
// pipelines run under this context. A server process shares one global
// budget between concurrent requests; the context budget is how each
// session carries its own.
func ContextWithWorkers(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, workersKey{}, n)
}

// WorkersCtx returns the context's worker budget, falling back to the
// process-wide Workers budget when the context carries none.
func WorkersCtx(ctx context.Context) int {
	if n, ok := ctx.Value(workersKey{}).(int); ok {
		return n
	}
	return Workers()
}

// ForEach runs fn(0), ..., fn(n-1) on up to jobs workers; jobs <= 1 runs
// serially on the calling goroutine. Otherwise the calling goroutine is one
// of the workers, and each worker claims the next unstarted index from a
// shared counter, so uneven item costs balance across workers. A panic in
// fn stops the sweep: no further items start, the items in flight finish,
// and the first panic value is re-raised on the calling goroutine, where
// the caller's recover sees it.
func ForEach(n, jobs int, fn func(i int)) {
	ForEachCtx(context.Background(), n, jobs, fn)
}

// ForEachCtx is ForEach that stops handing out work once ctx is cancelled;
// items already started run to completion (work functions are not
// interrupted mid-item). Returns ctx.Err() when the sweep was cut short,
// nil when every item ran.
func ForEachCtx(ctx context.Context, n, jobs int, fn func(i int)) error {
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var (
		next      atomic.Int64
		stop      atomic.Bool
		panicOnce sync.Once
		panicVal  any
		wg        sync.WaitGroup
	)
	done := ctx.Done() // nil for an uncancellable context: never ready
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicVal = r })
				stop.Store(true)
			}
		}()
		for !stop.Load() {
			select {
			case <-done:
				return
			default:
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(jobs - 1)
	for w := 1; w < jobs; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return ctx.Err()
}
