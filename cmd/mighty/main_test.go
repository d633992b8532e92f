package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/logic"
	"repro/logic/bench"
)

// buildMighty compiles the command into a temporary directory.
func buildMighty(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mighty")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestAmbiguousInputFails: mighty must exit nonzero on a BLIF that drives
// a signal twice (logic/testdata/dup2.blif), naming the signal, instead of
// optimizing one of the two definitions.
func TestAmbiguousInputFails(t *testing.T) {
	bin := buildMighty(t)
	cmd := exec.Command(bin, "-in", "../../logic/testdata/dup2.blif", "-opt", "none", "-verify", "none")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("mighty accepted dup2.blif:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("mighty: %v", err)
	}
	if !strings.Contains(string(out), `"f"`) || !strings.Contains(string(out), "line 7") {
		t.Fatalf("error does not name f at line 7:\n%s", out)
	}
}

// TestClashingPortNamesRoundTrip: converting a circuit whose input is
// named like the BLIF writer's internal net n3 must keep its function.
func TestClashingPortNamesRoundTrip(t *testing.T) {
	bin := buildMighty(t)
	dir := t.TempDir()
	src := ".model clash\n.inputs n3 b\n.outputs f g\n.names n3 b f\n11 1\n.names n3 g\n1 1\n.end\n"
	in, out := filepath.Join(dir, "clash.blif"), filepath.Join(dir, "out.blif")
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if msg, err := exec.Command(bin, "-in", in, "-out", out, "-opt", "none", "-verify", "none").CombinedOutput(); err != nil {
		t.Fatalf("mighty: %v\n%s", err, msg)
	}
	written, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := logic.DecodeBLIF(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := logic.DecodeBLIF(string(written))
	if err != nil {
		t.Fatalf("%v\n%s", err, written)
	}
	res, err := logic.Equivalent(context.Background(), orig, back, "exact")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("round trip changed the circuit (%s):\n%s", res.Detail, written)
	}
}

// TestPartitionedHeadlineReportsInput: the "before" half of the summary
// line describes the input, so a partitioned run must print what the
// unpartitioned -opt none run prints, not the metrics of window p0.
func TestPartitionedHeadlineReportsInput(t *testing.T) {
	bin := buildMighty(t)
	src, err := logic.Encode(bench.Mesh(5000), logic.FormatBLIF)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "mesh5000.blif")
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	before := func(args ...string) string {
		t.Helper()
		args = append([]string{"-in", in, "-stats", "-verify", "none"}, args...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("mighty %v: %v\n%s", args, err, out)
		}
		const prefix = "mighty: mesh5000: "
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				b, _, _ := strings.Cut(rest, " -> ")
				return b
			}
		}
		t.Fatalf("mighty %v printed no summary line:\n%s", args, out)
		return ""
	}
	want := before("-opt", "none")
	if got := before("-partition", "8", "-effort", "1"); got != want {
		t.Fatalf("partitioned run reports input %q, want %q", got, want)
	}
}
