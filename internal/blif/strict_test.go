package blif

import (
	"strings"
	"testing"
)

// TestParseRejectsAmbiguousDefinitions: every way of defining a signal or
// port twice is an error naming the signal and the offending line.
func TestParseRejectsAmbiguousDefinitions(t *testing.T) {
	cases := []struct {
		name, src string
		want      []string
	}{
		{"second .names", ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.names a b f\n1- 1\n.end\n",
			[]string{`"f"`, "line 6", "defined twice", "line 4"}},
		{".names over an input", ".model m\n.inputs a b\n.outputs f\n.names b a\n1 1\n.names a f\n1 1\n.end\n",
			[]string{`"a"`, "line 4", "redefines input"}},
		{"duplicate input", ".model m\n.inputs a a\n.outputs f\n.names a f\n1 1\n.end\n",
			[]string{`"a"`, "line 2", "input", "declared twice"}},
		{"input repeated on a later line", ".model m\n.inputs a\n.inputs b a\n.outputs f\n.names a f\n1 1\n.end\n",
			[]string{`"a"`, "line 3", "first at line 2"}},
		{"duplicate output", ".model m\n.inputs a b\n.outputs f f\n.names a b f\n11 1\n.end\n",
			[]string{`"f"`, "line 3", "output", "declared twice"}},
		{".names without a signal", ".model m\n.inputs a\n.outputs a\n.names\n.end\n",
			[]string{"line 4", ".names without a signal"}},
		{"line numbers count comments and continuations", "# header\n.model m\n.inputs a \\\n b\n\n.outputs f\n.names a b f\n11 1\n.names a f\n1 1\n.end\n",
			[]string{`"f"`, "line 9", "first at line 7"}},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q lacks %q", c.name, err, w)
			}
		}
	}
}
