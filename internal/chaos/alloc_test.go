//go:build !race

package chaos

import (
	"runtime"
	"testing"
)

// TestRunAllocationBudget: one recorded scenario, both runs and the audit,
// allocates under 1 MiB. Each run records its events into a trace log, so a
// log that reserves its whole bound up front (4 MiB) blows the budget.
func TestRunAllocationBudget(t *testing.T) {
	sc := Generate(1)
	if _, err := Run(sc); err != nil { // warm package-level caches
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := Run(sc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Events == nil || out.Result.Events.Len() == 0 {
		t.Fatal("scenario recorded no events; the budget would not cover the trace log")
	}
	kb := (after.TotalAlloc - before.TotalAlloc) >> 10
	if kb >= 1024 {
		t.Fatalf("chaos.Run allocated %d KiB, want under 1 MiB", kb)
	}
	t.Logf("chaos.Run of Generate(1): %d KiB, %d allocations, %d events",
		kb, after.Mallocs-before.Mallocs, out.Result.Events.Len())
}
