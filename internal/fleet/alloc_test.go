//go:build !race

package fleet

import (
	"runtime"
	"testing"
)

// TestRunAllocationBudget: one 64-session fleet run, the benchmark's op,
// allocates under 6 MiB, about twice what its rigs and reduction need.
// Each of its 64 shards builds an aggregate of at least five sketches, so
// sketches that hold every bucket of their range (31 KiB each) blow the
// budget.
func TestRunAllocationBudget(t *testing.T) {
	opts := RunOptions{Population: DefaultPopulation(), Seed: 1_000_003, Devices: 64}
	if _, err := Run(opts); err != nil { // warm package-level caches
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.RanShards != DefaultShards {
		t.Fatalf("ran %d shards, want %d", res.RanShards, DefaultShards)
	}
	kb := (after.TotalAlloc - before.TotalAlloc) >> 10
	if kb >= 6<<10 {
		t.Fatalf("fleet.Run of 64 sessions allocated %d KiB, want under 6 MiB", kb)
	}
	t.Logf("fleet.Run of 64 sessions: %d KiB, %d allocations", kb, after.Mallocs-before.Mallocs)
}
