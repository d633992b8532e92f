package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/logic/bench"
)

func TestPercentileCountsFailuresAsInf(t *testing.T) {
	inf := math.Inf(1)
	var s []float64
	for i := 10; i >= 1; i-- { // unsorted on purpose
		s = append(s, float64(i))
	}
	if got := percentile(s, 0.5); got != 5 {
		t.Fatalf("p50 of 1..10 = %v, want 5", got)
	}
	if got := percentile(s, 0.8); got != 8 {
		t.Fatalf("p80 of 1..10 = %v, want 8", got)
	}
	// Two failures among ten: p80 still lands on a success, p90 does not.
	s = []float64{inf, 1, 2, 3, 4, 5, 6, 7, 8, inf}
	if got := percentile(s, 0.8); got != 8 {
		t.Fatalf("p80 with 2/10 failed = %v, want 8", got)
	}
	if got := percentile(s, 0.9); !math.IsInf(got, 1) {
		t.Fatalf("p90 with 2/10 failed = %v, want +Inf", got)
	}
	// The mcnc-migd shape: 56 sends, p80 has 11 samples beyond it.
	s = make([]float64, 56)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.8); got != 45 {
		t.Fatalf("p80 of 56 samples = %v, want the 45th", got)
	}
	if got := finite(inf); got != math.MaxFloat64 {
		t.Fatalf("finite(+Inf) = %v", got)
	}
}

// mutate complements the middle multi-input gate of a BLIF text.
func mutate(t *testing.T, src string) string {
	lines := strings.Split(src, "\n")
	var gates []int
	for i, l := range lines {
		if f := strings.Fields(l); len(f) >= 4 && f[0] == ".names" {
			gates = append(gates, i)
		}
	}
	if len(gates) == 0 {
		t.Fatal("no multi-input gate to mutate")
	}
	g := gates[len(gates)/2]
	for i := g + 1; i < len(lines) && !strings.HasPrefix(lines[i], "."); i++ {
		f := strings.Fields(lines[i])
		if len(f) == 2 {
			lines[i] = f[0] + " " + map[string]string{"0": "1", "1": "0"}[f[1]]
		}
	}
	return strings.Join(lines, "\n")
}

func TestEvaluatorCatchesOneGateMutation(t *testing.T) {
	for _, name := range bench.Circuits() {
		c, err := bench.Circuit(name)
		if err != nil {
			t.Fatal(err)
		}
		src := c.EncodeBLIF()
		if err := equivalent(src, src, 1); err != nil {
			t.Fatalf("%s: circuit not equivalent to itself: %v", name, err)
		}
		if err := equivalent(src, mutate(t, src), 1); err == nil {
			t.Errorf("%s: one-gate mutation not caught", name)
		}
	}
}

func TestEvaluatorRejectsMalformedBLIF(t *testing.T) {
	for _, src := range []string{
		".inputs a\n.outputs f\n.names a g f\n11 1\n",                    // g never driven
		".inputs a\n.outputs f\n.names a f f2\n11 1\n.names f2 f\n1 1\n", // cycle
		".inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n",      // f defined twice
		".inputs a\n.outputs f\n.latch a f\n",                            // sequential
	} {
		if _, err := parseBLIF(src); err == nil {
			t.Errorf("accepted malformed BLIF:\n%s", src)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	r1, o1, err := migdInputs()
	if err != nil {
		t.Fatal(err)
	}
	r2, o2, _ := migdInputs()
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(o1, o2) {
		t.Fatal("mcnc-migd inputs differ between calls")
	}
	for _, nominal := range []int{80000, 5000} {
		g := meshGates(nominal, 7)
		if g != meshGates(nominal, 7) {
			t.Fatal("mesh size differs for the same seed")
		}
		if d := math.Abs(float64(g-nominal)) / float64(nominal); d > 0.01 {
			t.Fatalf("mesh size %d is %.2f%% from nominal %d", g, 100*d, nominal)
		}
	}
	a, b := newMeshPartition(7), newMeshPartition(7)
	if err := a.setup(); err != nil {
		t.Fatal(err)
	}
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if a.src != b.src {
		t.Fatal("mesh BLIF differs for the same seed")
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metrics and the
// declared ones in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	printed := func(ms map[string]metric) []string {
		var out []string
		for k, m := range ms {
			out = append(out, k+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	e2e := endToEnd([]float64{1}, []*batch{{wall: 1, attempted: 1, latencies: []float64{1}}})
	if got, want := printed(e2e.Metrics), declared(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	layers := traceResult(&batch{}, &traceRun{rec: newRecorder(), wall: 1})
	if got, want := printed(layers.Metrics), declared(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
}

func TestDispatcherKeepsOrderAndHoldsSecondSends(t *testing.T) {
	order := []int{0, 0, 1, 2, 1, 2, 3, 3}
	d := newDispatcher(order, 4)
	var mu sync.Mutex
	firstDone := make([]bool, 4)
	handed := make([]int, len(order))
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := d.take(); i >= 0; i = d.take() {
				mu.Lock()
				handed[i]++
				if d.second[i] && !firstDone[order[i]] {
					t.Errorf("position %d handed out before its first send returned", i)
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				if !d.second[i] {
					firstDone[order[i]] = true
				}
				mu.Unlock()
				d.done(i)
			}
		}()
	}
	wg.Wait()
	for i, n := range handed {
		if n != 1 {
			t.Errorf("position %d handed out %d times", i, n)
		}
	}
}
