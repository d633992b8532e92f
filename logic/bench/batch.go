package bench

// Batch engine: the repository's first concurrency layer. Benchmark
// circuits are distributed over a worker pool, and inside each circuit the
// competing flows (MIG / AIG / BDS or MIG / AIG / CST) run concurrently.
// Every optimization is a pure function from an input network, so the only
// nondeterministic output fields are the measured wall times — the result
// slice order always matches the input order, making parallel runs
// byte-identical to serial ones once times are normalized (see ZeroTimes).

import (
	"sync"

	"repro/internal/opt"
	"repro/logic"
)

// SetWorkers configures the process-wide worker budget parallel-safe
// passes (window-rewrite, fraig) read when no per-context budget is set —
// what the CLIs wire -jobs to. Sessions override it per run with
// logic.WithWorkers.
func SetWorkers(n int) { opt.SetWorkers(n) }

// parallel3 runs three independent measurements, concurrently when on is
// true.
func parallel3(on bool, a, b, c func()) {
	if !on {
		a()
		b()
		c()
		return
	}
	var wg sync.WaitGroup
	wg.Add(3)
	for _, fn := range []func(){a, b, c} {
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	wg.Wait()
}

// RunOptRows measures Table I-top for all circuits using a pool of jobs
// workers (jobs <= 1 = fully serial); when jobs > 1 the three optimizers of
// a row also run concurrently. Row order matches the input order and every
// field except the wall times is deterministic.
func RunOptRows(nets []logic.Network, cfg Config, jobs int) []OptRow {
	rows := make([]OptRow, len(nets))
	opt.ForEach(len(nets), jobs, func(i int) {
		rows[i] = runOptRow(logic.Flat(nets[i]), cfg, jobs > 1)
	})
	return rows
}

// RunSynthRows measures Table I-bottom for all circuits using a pool of
// jobs workers, with the same determinism guarantees as RunOptRows.
func RunSynthRows(nets []logic.Network, cfg Config, jobs int) []SynthRow {
	rows := make([]SynthRow, len(nets))
	opt.ForEach(len(nets), jobs, func(i int) {
		rows[i] = runSynthRow(logic.Flat(nets[i]), cfg, jobs > 1)
	})
	return rows
}

// ZeroTimes clears the wall-time fields of opt rows — the only fields that
// differ between repeated (or serial vs parallel) runs.
func ZeroTimes(rows []OptRow) {
	for i := range rows {
		rows[i].MIG.Seconds = 0
		rows[i].AIG.Seconds = 0
		rows[i].BDS.Seconds = 0
		rows[i].VerifyMS = 0
	}
}

// ZeroSynthTimes is ZeroTimes for synthesis rows.
func ZeroSynthTimes(rows []SynthRow) {
	for i := range rows {
		rows[i].MIG.Seconds = 0
		rows[i].AIG.Seconds = 0
		rows[i].CST.Seconds = 0
	}
}
