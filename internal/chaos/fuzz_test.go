package chaos

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadScenario checks the strict scenario decoder behind LoadScenario:
// it never panics, and every scenario it accepts survives a Save round trip
// — re-encoded as Save writes it, the bytes parse again to a scenario with
// the same content address.
func FuzzLoadScenario(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no seed scenarios under testdata/corpus")
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sc, err := parseScenario(b)
		if err != nil {
			return
		}
		enc, err := sc.encode()
		if err != nil {
			t.Fatalf("accepted scenario does not encode: %v", err)
		}
		again, err := parseScenario(enc)
		if err != nil {
			t.Fatalf("saved form of an accepted scenario is rejected: %v\n%s", err, enc)
		}
		if a, b := sc.ID(), again.ID(); a != b {
			t.Fatalf("round trip changed the id %s to %s:\n%s", a, b, enc)
		}
	})
}
