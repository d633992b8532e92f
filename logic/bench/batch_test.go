package bench

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/opt"
	"repro/logic"
)

func batchNets(t *testing.T) []logic.Network {
	t.Helper()
	names := []string{"b9", "count", "alu4", "my_adder"}
	nets := make([]logic.Network, len(names))
	for i, name := range names {
		n, err := Circuit(name)
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = n
	}
	return nets
}

// The parallel batch engine must produce byte-identical tables to the
// serial run (the wall-time fields are the only nondeterministic output and
// are normalized by ZeroTimes).
func TestBatchOptDeterminism(t *testing.T) {
	nets := batchNets(t)
	cfg := Config{Effort: 2, AIGRounds: 1}

	serial := RunOptRows(nets, cfg, 1)
	parallel := RunOptRows(nets, cfg, 4)
	ZeroTimes(serial)
	ZeroTimes(parallel)

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("rows differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	st, pt := FormatOptTable(serial), FormatOptTable(parallel)
	if st != pt {
		t.Fatalf("tables differ:\n%s\nvs\n%s", st, pt)
	}
	// Order must match the input order.
	for i, n := range nets {
		if serial[i].Name != n.Name() {
			t.Fatalf("row %d is %q, want %q", i, serial[i].Name, n.Name())
		}
	}
}

func TestBatchSynthDeterminism(t *testing.T) {
	nets := batchNets(t)[:2]
	cfg := Config{Effort: 2, AIGRounds: 1}

	serial := RunSynthRows(nets, cfg, 1)
	parallel := RunSynthRows(nets, cfg, 3)
	ZeroSynthTimes(serial)
	ZeroSynthTimes(parallel)

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("rows differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if FormatSynthTable(serial) != FormatSynthTable(parallel) {
		t.Fatal("tables differ")
	}
}

// Batch verification mode stays green in parallel: equivalence checking is
// part of each row's work item.
func TestBatchVerifyParallel(t *testing.T) {
	nets := batchNets(t)[:2]
	cfg := Config{Effort: 1, AIGRounds: 1, Verify: true}
	rows := RunOptRows(nets, cfg, 2)
	for _, r := range rows {
		if r.VerifyErr != "" {
			t.Errorf("%s: %s", r.Name, r.VerifyErr)
		}
	}
}

// TestForEach exercises the worker pool the batch engine distributes
// circuits over (opt.ForEach).
func TestForEach(t *testing.T) {
	var sum atomic.Int64
	opt.ForEach(100, 7, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 4950 {
		t.Fatalf("parallel sum = %d", got)
	}
	sum.Store(0)
	opt.ForEach(10, 1, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 45 {
		t.Fatalf("serial sum = %d", got)
	}
	opt.ForEach(0, 4, func(int) { t.Fatal("no work expected") })
	// More workers than items must not deadlock.
	sum.Store(0)
	opt.ForEach(2, 16, func(i int) { sum.Add(int64(i + 1)) })
	if got := sum.Load(); got != 3 {
		t.Fatalf("overprovisioned sum = %d", got)
	}
}

func TestJSONReportStable(t *testing.T) {
	nets := batchNets(t)[:1]
	cfg := Config{Effort: 1, AIGRounds: 1}
	rows := RunOptRows(nets, cfg, 1)
	ZeroTimes(rows)
	s := SummarizeOpt(rows)
	r := Report{Experiment: "table1top", Effort: 1, AIGRounds: 1, Jobs: 1, Opt: rows, OptSummary: &s}
	j1, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := r.JSON()
	if j1 != j2 {
		t.Fatal("JSON rendering not stable")
	}
	for _, want := range []string{`"experiment": "table1top"`, `"mig"`, `"size"`, `"depth_vs_aig"`} {
		if !strings.Contains(j1, want) {
			t.Errorf("JSON missing %s:\n%s", want, j1)
		}
	}
}
