package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"odyssey/internal/experiment"
)

// goldenSeed is the default seed; the golden digests are taken at it.
const goldenSeed = 1

// golden.json holds, per workload, the sha256 over the output lines of the
// ops every run completes at goldenSeed: chaos scenario ids with met, hex
// residual and ledger total; fleet aggregate fingerprints; long-session
// GoalResult fields in hex; odyssey-sim's stdout. Rewrite it with -bless
// only for a change meant to alter simulated output, and say why in
// CHANGES.md.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// goldenDigest returns the digest a run must reproduce, and whether the
// check applies: at goldenSeed (any seed for a seedless workload), outside
// smoke runs.
func goldenDigest(c *config, w *workloadDef) (string, bool) {
	if c.smoke || (!w.seedless && c.seed != goldenSeed) {
		return "", false
	}
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil || g.Seed != goldenSeed {
		return "unreadable golden.json", true
	}
	if d, ok := g.Digests[w.name]; ok {
		return d, true
	}
	return "missing from golden.json", true
}

// blessGolden recomputes every workload's digest at goldenSeed in this
// process and writes them to path.
func blessGolden(c *config, path string) error {
	c.seed, c.smoke = goldenSeed, false
	g := goldenFile{Seed: goldenSeed, Digests: map[string]string{}}
	for _, w := range workloads {
		experiment.SetParallelism(w.width)
		lr := runLoop(w.newOp(c), w.clients, w.ops(false), 0, w.tailQ)
		if lr.Failed > 0 {
			return fmt.Errorf("%s: %d op(s) failed: %s", w.name, lr.Failed, lr.Detail)
		}
		g.Digests[w.name] = lr.Digest
		fmt.Fprintf(os.Stderr, "bench: %s %s over %d ops\n", w.name, lr.Digest, lr.Ops)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
