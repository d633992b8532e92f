package main

// Spans around the benchmark's calls into each layer. Traced runs are
// single-threaded (1 worker), so a stack gives every span its parent; a
// layer's self time is its spans' durations minus the time their children
// cover. Spans stay in memory until the run ends.

import (
	"context"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/opt"
)

type span struct {
	layer, name string
	parent      int
	window      int // partition window (0 outside a partitioned run)
	dur, child  time.Duration
	alloc       uint64 // bytes allocated while open, children included
	childAlloc  uint64
	removed     int // nodes a rewriting pass removed
}

type recorder struct {
	spans  []span
	stack  []int
	starts []time.Time
	allocs []uint64
	window int
	sample []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (r *recorder) allocated() uint64 {
	metrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

func (r *recorder) begin(layer, name string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{layer: layer, name: name, parent: parent, window: r.window})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	r.allocs = append(r.allocs, r.allocated())
	r.starts = append(r.starts, time.Now())
	return id
}

func (r *recorder) end() {
	n := len(r.stack) - 1
	dur := time.Since(r.starts[n])
	s := &r.spans[r.stack[n]]
	s.dur, s.alloc = dur, r.allocated()-r.allocs[n]
	if s.parent >= 0 {
		r.spans[s.parent].child += s.dur
		r.spans[s.parent].childAlloc += s.alloc
	}
	r.stack, r.starts, r.allocs = r.stack[:n], r.starts[:n], r.allocs[:n]
}

// do runs fn inside a span.
func (r *recorder) do(layer, name string, fn func()) {
	r.begin(layer, name)
	fn()
	r.end()
}

// tracedPass wraps a pass in a span named after it. A pass that opens a
// partition window's MIG leg advances the window counter first.
func tracedPass[G opt.Graph](r *recorder, layer string, p opt.Pass[G], opensWindow bool) opt.Pass[G] {
	name := p.Name()
	if i := strings.IndexByte(name, '('); i >= 0 {
		name = name[:i]
	}
	return opt.NewCtx(p.Name(), func(ctx context.Context, g G) (G, error) {
		if opensWindow {
			r.window++
		}
		before := 0
		if name == "rewrite-npn" {
			before = g.Size()
		}
		id := r.begin(layer, name)
		out, err := opt.Apply(ctx, p, g)
		r.end()
		if name == "rewrite-npn" {
			r.spans[id].removed = before - out.Size()
		}
		return out, err
	})
}

// selfTime sums the self time of every span whose layer and name match
// (name "" matches all names of the layer).
func (r *recorder) selfTime(layer, name string) float64 {
	var d time.Duration
	for _, s := range r.spans {
		if s.layer == layer && (name == "" || s.name == name) {
			d += s.dur - s.child
		}
	}
	return d.Seconds()
}

func (r *recorder) selfAllocMB(layer string) float64 {
	var b uint64
	for _, s := range r.spans {
		if s.layer == layer {
			b += s.alloc - s.childAlloc
		}
	}
	return float64(b) / (1 << 20)
}

// covered is the summed self time of all spans, which equals the time the
// top-level spans cover; divided by the traced wall time it is the share
// the layers account for.
func (r *recorder) covered() float64 {
	var d time.Duration
	for _, s := range r.spans {
		if s.parent < 0 {
			d += s.dur
		}
	}
	return d.Seconds()
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"blif.decode_s", "s"},
	{"blif.encode_s", "s"},
	{"blif.decode_mb_per_s", "MB/s"},
	{"netlist.convert_s", "s"},
	{"mig.cleanup_s", "s"},
	{"mig.eliminate_s", "s"},
	{"mig.rewrite-npn_s", "s"},
	{"mig.reshape-size_s", "s"},
	{"mig.alg2-depth_s", "s"},
	{"mig.eliminate-budget_s", "s"},
	{"mig.activity-recover_s", "s"},
	{"mig.pushup_s", "s"},
	{"mig.fraig_s", "s"},
	{"mig.rewrite-npn_removed", "nodes"},
	{"mig.alloc_mb", "MB"},
	{"aig.cleanup_s", "s"},
	{"aig.balance_s", "s"},
	{"aig.rewrite_s", "s"},
	{"aig.refactor_s", "s"},
	{"aig.alloc_mb", "MB"},
	{"part.partition_s", "s"},
	{"part.mig_leg_s", "s"},
	{"part.aig_leg_s", "s"},
	{"part.stitch_s", "s"},
	{"part.other_s", "s"},
	{"part.max_window_s", "s"},
	{"part.lost_leg_ratio", "ratio"},
	{"part.aig_windows", "count"},
	{"equiv.step_check_s", "s"},
	{"equiv.final_check_s", "s"},
	{"equiv.sat_conflicts", "count"},
	{"equiv.undecided", "count"},
	{"service.latency_p50_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.overhead_s", "s"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"trace.wall_s", "s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_s", "s"},
}

// layerMetrics derives the span-based metrics of a traced run.
func layerMetrics(r *recorder, decodedBytes int) map[string]float64 {
	m := map[string]float64{}
	for _, l := range perLayer {
		layer, rest, _ := strings.Cut(l.name, ".")
		if name, ok := strings.CutSuffix(rest, "_s"); ok {
			m[l.name] = r.selfTime(layer, name)
		}
	}
	if d := m["blif.decode_s"]; d > 0 {
		m["blif.decode_mb_per_s"] = float64(decodedBytes) / (1 << 20) / d
	}
	m["mig.alloc_mb"] = r.selfAllocMB("mig")
	m["aig.alloc_mb"] = r.selfAllocMB("aig")
	for _, s := range r.spans {
		m["mig.rewrite-npn_removed"] += float64(s.removed)
	}
	return m
}

func traceResult(ref *batch, tr *traceRun) *result {
	res := &result{
		Correct:   ref.wrong == 0 && tr.wrong == 0,
		Attempted: ref.attempted + tr.attempted,
		Failed:    ref.failed + tr.failed,
		Metrics:   map[string]metric{},
	}
	// The untraced batch's layer metrics (the service's own counters) win
	// over the spans, which never enter the service.
	vals := map[string]float64{}
	for k, v := range tr.layers {
		vals[k] = v
	}
	for k, v := range ref.layers {
		vals[k] = v
	}
	vals["trace.wall_s"] = tr.wall
	vals["trace.coverage"] = tr.rec.covered() / tr.wall
	vals["trace.overhead_s"] = tr.wall - ref.wall
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{Value: finite(vals[l.name]), Unit: l.unit}
	}
	return res
}
