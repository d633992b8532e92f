package bench_test

import (
	"testing"

	"repro/logic"
	"repro/logic/bench"
)

// TestStrictDecodeAcceptsEncoderOutput: strict decoding must not reject
// anything the encoders write — every MCNC circuit and the 3k-gate mesh
// decode from both formats with their interface intact.
func TestStrictDecodeAcceptsEncoderOutput(t *testing.T) {
	nets := map[string]*logic.Netlist{"mesh3000": bench.Mesh(3000)}
	for _, name := range bench.Circuits() {
		n, err := bench.Circuit(name)
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = n
	}
	for name, n := range nets {
		for _, format := range []logic.Format{logic.FormatBLIF, logic.FormatVerilog} {
			text, err := logic.Encode(n, format)
			if err != nil {
				t.Fatal(err)
			}
			back, err := logic.Decode(format, text)
			if err != nil {
				t.Errorf("%s via %s: %v", name, format, err)
				continue
			}
			if back.NumInputs() != n.NumInputs() || back.NumOutputs() != n.NumOutputs() {
				t.Errorf("%s via %s: interface %d/%d, want %d/%d", name, format,
					back.NumInputs(), back.NumOutputs(), n.NumInputs(), n.NumOutputs())
			}
		}
	}
}
