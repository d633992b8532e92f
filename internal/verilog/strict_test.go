package verilog

import (
	"strings"
	"testing"
)

// TestParseRejectsAmbiguousDefinitions: a net driven twice, an input
// driven at all, and a port declared twice are errors naming the signal.
func TestParseRejectsAmbiguousDefinitions(t *testing.T) {
	cases := []struct {
		name, src string
		want      string
	}{
		{"second assign", "module m (a, b, f);\n input a, b;\n output f;\n assign f = a & b;\n assign f = a | b;\nendmodule\n",
			`net "f" assigned twice`},
		{"gate then assign", "module m (a, b, f);\n input a, b;\n output f;\n and g1 (f, a, b);\n assign f = a;\nendmodule\n",
			`net "f" assigned twice`},
		{"wire driven twice", "module m (a, b, f);\n input a, b;\n output f;\n wire w;\n assign w = a;\n assign w = b;\n assign f = w;\nendmodule\n",
			`net "w" assigned twice`},
		{"assign to input", "module m (a, b, f);\n input a, b;\n output f;\n assign a = b;\n assign f = a;\nendmodule\n",
			`assignment to input "a"`},
		{"assign before input declaration", "module m (a, b, f);\n assign a = b;\n input a, b;\n output f;\n assign f = a;\nendmodule\n",
			`assignment to input "a"`},
		{"duplicate input", "module m (a, f);\n input a;\n input a;\n output f;\n assign f = a;\nendmodule\n",
			`port "a" declared twice`},
		{"input and output", "module m (a, f);\n input a;\n output a, f;\n assign f = a;\nendmodule\n",
			`port "a" declared twice`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
