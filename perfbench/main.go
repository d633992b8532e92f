// Command perfbench is the repository benchmark. It runs one named
// workload through the surfaces users touch — logic.Session for the CLIs and
// SDK, and an in-process migd server over loopback HTTP — checks every
// output with its own BLIF simulator, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload mesh-mig --seed 1 --seconds 5 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//   - mesh-mig: bench.Mesh(80000) (87.5k gates, 0.2M MIG nodes) through
//     the migscript3 strategy at 2 workers — the paper's MIG rewriting near
//     the scale of its in-text run.
//   - mesh-partition: bench.Mesh(5000) through 8-way partitioned mixed
//     MIG/AIG synthesis (effort 1, flow objective) at 2 workers.
//   - mcnc-migd: the 14 Table I circuits, each sent to migd as a migscript3
//     and a flow+fraig request with verify "auto" and a 15s deadline, every
//     request twice (the second only after the first returned), in one fixed
//     order, by two closed-loop clients without retries against a 2-worker
//     server.
//
// The seed nudges the mesh gate count within ±1% of nominal and seeds the
// output checks; the program under test only sees the generated inputs.
// With --trace 0 the run reports the end-to-end metrics, measured untraced;
// a mesh batch is one operation, so there latency_p80_s equals wall_s. With
// --trace 1 it makes one untraced batch, then repeats the workload at 1
// worker with spans around every call into a layer, and reports per-layer
// metrics; the two outputs must be byte-identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 11

// workload is one benchmark input set and the way it is driven.
type workload interface {
	// setup generates the seeded inputs and starts what a batch needs.
	setup() error
	// batch runs the workload once with tracing off and checks its outputs.
	batch() *batch
	// traced repeats the workload at 1 worker with spans around every
	// layer call; ref is an untraced batch of the same inputs.
	traced(ref *batch) *traceRun
	close()
}

// batch is one untraced pass over a workload's operations.
type batch struct {
	wall      float64   // seconds from the first operation's start to the last one's end
	latencies []float64 // per operation; +Inf when it failed
	attempted int
	failed    int
	wrong     int // failed because the output was wrong or not reproducible
	outSize   int
	outDepth  int
	peakRSS   float64
	// layers holds per-layer metrics an untraced run can observe from
	// outside (the service's own counters); traced runs add the rest.
	layers map[string]float64
	// outputs maps an operation key to the SHA-256 of its emitted BLIF.
	outputs map[string]string
}

// traceRun is the traced repetition of a workload.
type traceRun struct {
	rec       *recorder
	wall      float64
	attempted int
	failed    int
	wrong     int
	layers    map[string]float64 // per-layer metrics
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "mesh-mig":
		return newMeshMIG(seed), nil
	case "mesh-partition":
		return newMeshPartition(seed), nil
	case "mcnc-migd":
		return newMigd(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want mesh-mig, mesh-partition or mcnc-migd)", name)
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measure whole batches until at least this many seconds have passed")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, time.Duration(*seconds)*time.Second, *trace == 1)
	w.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(w workload, measure time.Duration, traced bool) (*result, error) {
	repeats := setupRepeats
	if traced {
		repeats = 1 // traced runs report no set-up time
	}
	setups := make([]float64, repeats)
	for i := range setups {
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	if traced {
		ref := w.batch()
		tr := w.traced(ref)
		return traceResult(ref, tr), nil
	}
	var batches []*batch
	for start := time.Now(); len(batches) == 0 || time.Since(start) < measure; {
		batches = append(batches, w.batch())
	}
	return endToEnd(setups, batches), nil
}

func endToEnd(setups []float64, batches []*batch) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var walls, sizes, depths, lat []float64
	peak := 0.0
	for _, b := range batches {
		res.Attempted += b.attempted
		res.Failed += b.failed
		res.Correct = res.Correct && b.wrong == 0
		walls = append(walls, b.wall)
		sizes = append(sizes, float64(b.outSize))
		depths = append(depths, float64(b.outDepth))
		lat = append(lat, b.latencies...)
		peak = math.Max(peak, b.peakRSS)
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: finite(v), Unit: unit} }
	set("setup_s", "s", median(setups))
	set("wall_s", "s", median(walls))
	set("ok_ratio", "ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	set("out_size", "gates", median(sizes))
	set("out_depth", "levels", median(depths))
	set("latency_p80_s", "s", percentile(lat, 0.80))
	set("peak_rss_mb", "MB", peak)
	return res
}

// logf reports a failed operation on standard error; standard output
// carries only the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
