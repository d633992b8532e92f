package aig

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mcnc"
)

// fingerprint renders the full structure of an AIG: input nodes, every
// node's kind, level and fanins, and the outputs.
func fingerprint(a *AIG) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s inputs=%v\n", a.Name, a.inputs)
	for i, nd := range a.nodes {
		fmt.Fprintf(&b, "%d k%d l%d %d %d\n", i, nd.kind, nd.level, nd.fanin[0], nd.fanin[1])
	}
	for _, o := range a.Outputs {
		fmt.Fprintf(&b, "out %s=%d\n", o.Name, o.Sig)
	}
	return b.String()
}

// TestFraigPassPinnedAIG fixes the exact output of FraigPass(4, 2, 2000, 1)
// on MCNC circuits (see the MIG twin): the hashes are structural
// fingerprints of the pass result.
func TestFraigPassPinnedAIG(t *testing.T) {
	want := map[string]string{
		"b9":     "ae240a2d099c7d6889310bbe069838ccd6157031e39cd77d070848ea09566bb7",
		"count":  "797835fc7cc5be1d310f3159e2920171f1bfde11f3212e75e7d2dd8e449438d6",
		"dalu":   "6cae81ada618094a776c08140738ac48f77b6ed2e67091df6caa67b51015206d",
		"C1355":  "1fd94922a41f38a9e0b9142b4e092617a115a85cb3f13f4ca48828ee5ba4a29e",
		"misex3": "4a39ef00502fc481afc3926eae9b08a8027326aa30d8b3351da33632f7494cec",
		"alu4":   "66b7d4e1749ccf92b959854cefaaf3ec251c5bdbfda6b65b31ed6dc7f7a5f520",
	}
	for bench, hash := range want {
		n, err := mcnc.Generate(bench)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(fingerprint(FromNetwork(n).FraigPass(4, 2, 2000, 1)))))
		if got != hash {
			t.Errorf("%s: fraig fingerprint %s, want %s", bench, got, hash)
		}
	}
}

// BenchmarkAIGFraigPass measures the AIG sweep on the circuit the MIG
// BenchmarkFraigPass uses.
func BenchmarkAIGFraigPass(b *testing.B) {
	n, err := mcnc.Generate("dalu")
	if err != nil {
		b.Fatal(err)
	}
	a := FromNetwork(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.FraigPass(4, 2, 2000, 1)
	}
}
