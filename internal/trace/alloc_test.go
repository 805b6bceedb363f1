//go:build !race

package trace

import (
	"math"
	"runtime"
	"testing"
	"time"
)

var sinkLog *Log

// TestNewLogReservesNoStorage: creating a log costs its header, not its
// bound; a chaos scenario creates two and records a few dozen events.
func TestNewLogReservesNoStorage(t *testing.T) {
	now := func() time.Duration { return 0 }
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sinkLog = NewLog(now, 0)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Fatalf("NewLog allocates %d B, want under 1 KiB", per)
	}
}

// TestAddGrowthIsAmortized: 1,000 Adds into a default log allocate the log
// and then at most one doubling per power of two.
func TestAddGrowthIsAmortized(t *testing.T) {
	now := func() time.Duration { return 0 }
	allocs := testing.AllocsPerRun(20, func() {
		l := NewLog(now, 0)
		for i := 0; i < 1000; i++ {
			l.Add(CatAdapt, "app", "degrade", float64(i))
		}
		sinkLog = l
	})
	if limit := 1 + math.Log2(1000); allocs > limit {
		t.Fatalf("NewLog + 1000 Adds: %.0f allocations, want at most %.0f", allocs, limit)
	}
}
