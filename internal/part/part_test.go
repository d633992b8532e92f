package part

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/blif"
	"repro/internal/equiv"
	"repro/internal/mcnc"
	"repro/internal/netlist"
)

func circuit(t *testing.T, name string) *netlist.Network {
	t.Helper()
	n, err := mcnc.Generate(name)
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	return n
}

func TestPartitionDeterministicAndComplete(t *testing.T) {
	n := circuit(t, "my_adder")
	a, err := Partition(n, Options{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(n, Options{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Assign, b.Assign) || a.Cut != b.Cut {
		t.Fatalf("partition not deterministic: cut %d vs %d", a.Cut, b.Cut)
	}
	gates := 0
	for i, nd := range n.Nodes {
		switch nd.Op {
		case netlist.Const0, netlist.Input:
			if a.Assign[i] != -1 {
				t.Fatalf("node %d (%v) assigned to part %d", i, nd.Op, a.Assign[i])
			}
		default:
			if a.Assign[i] < 0 || int(a.Assign[i]) >= a.K {
				t.Fatalf("gate %d unassigned (part %d of %d)", i, a.Assign[i], a.K)
			}
			gates++
		}
	}
	total := 0
	for p, c := range a.Parts {
		if c == 0 {
			t.Logf("part %d is empty", p)
		}
		total += c
	}
	if total != gates {
		t.Fatalf("part sizes sum to %d, want %d gates", total, gates)
	}
	// A different seed is allowed to cut differently, but must stay
	// internally consistent.
	c, err := Partition(n, Options{K: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.K != a.K {
		t.Fatalf("seed changed effective k: %d vs %d", c.K, a.K)
	}
}

func TestPartitionClampsTinyNetworks(t *testing.T) {
	n := netlist.New("tiny")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("o", n.AddGate(netlist.And, a, b))
	res, err := Partition(n, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Fatalf("k=%d for a 1-gate network, want 1", res.K)
	}
}

func TestPartitionRejectsHugeK(t *testing.T) {
	n := circuit(t, "my_adder")
	if _, err := Partition(n, Options{K: MaxK + 1}); err == nil {
		t.Fatal("k > MaxK accepted")
	}
}

// TestWindowRoundTrip stitches UNOPTIMIZED windows back together and
// checks the rebuild is functionally equivalent to the original — the
// extraction/stitch pair loses nothing on its own.
func TestWindowRoundTrip(t *testing.T) {
	for _, name := range []string{"my_adder", "C1355", "parity8"} {
		n, err := mcnc.Generate(name)
		if err != nil {
			// Not every name exists in every suite revision; skip unknowns.
			continue
		}
		res, err := Partition(n, Options{K: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		windows := extractWindows(n, res.Assign, res.K)
		bodies := make([]*netlist.Network, len(windows))
		for i, w := range windows {
			bodies[i] = w.Net
		}
		out, err := stitch(n, windows, bodies)
		if err != nil {
			t.Fatalf("%s: stitch: %v", name, err)
		}
		check, err := equiv.Check(n, out, equiv.Options{})
		if err != nil {
			t.Fatalf("%s: equiv: %v", name, err)
		}
		if !check.Equivalent {
			t.Fatalf("%s: round trip broke equivalence: %s", name, check.Detail)
		}
	}
}

// TestStitchCyclicQuotient builds a netlist whose partition quotient graph
// is cyclic (A feeds B feeds A at different gates) and checks the
// gate-granular interleaved replay still stitches it.
func TestStitchCyclicQuotient(t *testing.T) {
	n := netlist.New("cyc")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g1 := n.AddGate(netlist.And, a, b)  // part 0
	g2 := n.AddGate(netlist.Or, g1, a)  // part 1, depends on part 0
	g3 := n.AddGate(netlist.Xor, g2, b) // part 0, depends on part 1
	n.AddOutput("o", g3)
	assign := []int32{-1, -1, -1, 0, 1, 0}
	windows := extractWindows(n, assign, 2)
	if len(windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(windows))
	}
	bodies := make([]*netlist.Network, len(windows))
	for i, w := range windows {
		bodies[i] = w.Net
	}
	out, err := stitch(n, windows, bodies)
	if err != nil {
		t.Fatalf("stitch: %v", err)
	}
	check, err := equiv.Check(n, out, equiv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !check.Equivalent {
		t.Fatalf("cyclic-quotient stitch broke equivalence: %s", check.Detail)
	}
}

func TestOptimizeEquivalentAndWorkerInvariant(t *testing.T) {
	n := circuit(t, "my_adder")
	cfg := Config{K: 4, Effort: 1}
	outs := make([]*netlist.Network, 3)
	for i, jobs := range []int{1, 2, 8} {
		c := cfg
		c.Workers = jobs
		out, rep, err := Optimize(context.Background(), n, c)
		if err != nil {
			t.Fatal(err)
		}
		if rep.K < 2 {
			t.Fatalf("effective k=%d, want >=2", rep.K)
		}
		if len(rep.Parts) == 0 || len(rep.Steps) == 0 {
			t.Fatal("report missing parts or steps")
		}
		outs[i] = out
	}
	ref := blif.Write(outs[0])
	for i := 1; i < len(outs); i++ {
		if blif.Write(outs[i]) != ref {
			t.Fatalf("jobs variant %d not byte-identical", i)
		}
	}
	check, err := equiv.Check(n, outs[0], equiv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !check.Equivalent {
		t.Fatalf("partitioned optimization broke equivalence: %s", check.Detail)
	}
}

func TestOptimizeObjectiveNoneSkipsAIG(t *testing.T) {
	n := circuit(t, "my_adder")
	_, rep, err := Optimize(context.Background(), n, Config{K: 2, Objective: "none"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Parts {
		if p.Rep != "mig" {
			t.Fatalf("objective none chose %q", p.Rep)
		}
	}
}

// Every window reports both legs' wall time, each within the window's
// total; objective "none" runs no AIG leg.
func TestOptimizeLegSeconds(t *testing.T) {
	n := circuit(t, "my_adder")
	for _, objective := range []string{"flow", "none"} {
		_, rep, err := Optimize(context.Background(), n, Config{K: 2, Effort: 1, Objective: objective})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Parts {
			if p.MIGSeconds < 0 || p.AIGSeconds < 0 || p.MIGSeconds+p.AIGSeconds > p.Seconds {
				t.Errorf("%s: window %d legs mig=%g aig=%g exceed seconds=%g",
					objective, p.Part, p.MIGSeconds, p.AIGSeconds, p.Seconds)
			}
			if objective == "none" && p.AIGSeconds != 0 {
				t.Errorf("none: window %d timed an AIG leg (%gs)", p.Part, p.AIGSeconds)
			}
		}
	}
}
