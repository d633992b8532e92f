package mig

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestFraigPassPinned fixes the exact output of FraigPass(4, 2, 2000, 1) on
// MCNC circuits: the hashes are the structural fingerprints (node array,
// levels, outputs) of the pass result, so any change to the sweep's seed,
// cone order, variable allocation or merge rebuild shows up here.
func TestFraigPassPinned(t *testing.T) {
	want := map[string]string{
		"b9":     "9b4e42bdb5e39e7bb7d15500833b58069be888acfa145125dbb83ac1b6502545",
		"count":  "00e5544128c8029e00b3369e563360357e50ba2f7db7588f68a69680aeda9af0",
		"dalu":   "e8df91cd8c4d2b078f12b173e1b74179e2de66a01d1724c7147399b62d0a62f1",
		"C1355":  "d7e7aeb0c16efd1d88f27fe6756a5622fd6dd260b2e8ac76a2c7143b56373eb3",
		"misex3": "2794d185e653afa246dd56a05e66e46301356f416d11b86bb82001eb608811b7",
		"alu4":   "5ab888279fbfa5e271942d3cd98ae1db0918252de804e813ffbbf5d45b259c2e",
	}
	for bench, hash := range want {
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(fingerprint(migFor(t, bench).FraigPass(4, 2, 2000, 1)))))
		if got != hash {
			t.Errorf("%s: fraig fingerprint %s, want %s", bench, got, hash)
		}
	}
}
