package logic_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/logic"
)

// TestEncodeRoundTripWithClashingPortNames: port names that look like the
// encoders' internal net names (n<i>, const0, <net>_inv for BLIF; w<i> for
// Verilog) must not capture those nets — every encoding decodes back to an
// equivalent circuit. Each source places a gate at the node index its port
// name imitates.
func TestEncodeRoundTripWithClashingPortNames(t *testing.T) {
	sources := map[string]string{
		// f = n3·b lands on node 3, the BLIF writer's "n3"; g = n3 directly.
		"n3": ".model n3\n.inputs n3 b\n.outputs f g\n.names n3 b f\n11 1\n.names n3 g\n1 1\n.end\n",
		// The same shape for the Verilog writer's "w3".
		"w3": ".model w3\n.inputs w3 b\n.outputs f g\n.names w3 b f\n11 1\n.names w3 g\n1 1\n.end\n",
		// A constant-0 output and a port named const0.
		"const0": ".model c\n.inputs const0 b\n.outputs f g\n.names f\n.names const0 b g\n11 1\n.end\n",
		// ~x is written as the net x_inv, which is also a port.
		"x_inv": ".model x\n.inputs x x_inv\n.outputs f\n.names x x_inv f\n01 1\n.end\n",
	}
	for name, src := range sources {
		orig, err := logic.DecodeBLIF(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, format := range []logic.Format{logic.FormatBLIF, logic.FormatVerilog} {
			text, err := logic.Encode(orig, format)
			if err != nil {
				t.Fatal(err)
			}
			back, err := logic.Decode(format, text)
			if err != nil {
				t.Errorf("%s via %s: %v\n%s", name, format, err, text)
				continue
			}
			res, err := logic.Equivalent(context.Background(), orig, back, "exact")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Equivalent {
				t.Errorf("%s via %s: round trip changed the circuit (%s)\n%s", name, format, res.Detail, text)
			}
		}
	}
}

// TestDecodeRejectsDuplicateDefinition: testdata/dup2.blif drives f twice;
// decoding must fail and name the signal and line.
func TestDecodeRejectsDuplicateDefinition(t *testing.T) {
	src, err := os.ReadFile("testdata/dup2.blif")
	if err != nil {
		t.Fatal(err)
	}
	_, err = logic.DecodeBLIF(string(src))
	if err == nil || !strings.Contains(err.Error(), `"f"`) || !strings.Contains(err.Error(), "line 7") {
		t.Fatalf("err = %v, want a duplicate-definition error for f at line 7", err)
	}
}
