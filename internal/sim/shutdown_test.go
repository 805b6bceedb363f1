package sim

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops to at most want.
// A coroutine's final hand-back happens-before Shutdown's next returns,
// but its goroutine's actual exit races the observer, hence the poll.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: %d still live, want <= %d",
		runtime.NumGoroutine(), want)
}

// TestShutdownReleasesParkedProcs is the fleet-scale leak regression: Run
// exits at the horizon with sleepers still parked, and without Shutdown
// each parked goroutine pins its stack and the kernel behind it forever.
func TestShutdownReleasesParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	for i := 0; i < 50; i++ {
		k.Spawn("sleeper", func(p *Proc) {
			for {
				p.Sleep(time.Second)
			}
		})
	}
	k.Run(10 * time.Second)
	k.Shutdown()
	for _, p := range k.procs {
		if !p.dead {
			t.Fatalf("process %d (%s) still live after Shutdown", p.pid, p.name)
		}
	}
	waitGoroutines(t, before)
}

// TestShutdownRunsDeferredCleanup checks that a killed process unwinds
// through its defers (model bookkeeping like xfer counters relies on it).
func TestShutdownRunsDeferredCleanup(t *testing.T) {
	k := NewKernel(1)
	cleaned := 0
	for i := 0; i < 3; i++ {
		k.Spawn("worker", func(p *Proc) {
			defer func() { cleaned++ }()
			for {
				p.Sleep(time.Minute)
			}
		})
	}
	k.Run(time.Second)
	k.Shutdown()
	if cleaned != 3 {
		t.Fatalf("deferred cleanup ran %d times, want 3", cleaned)
	}
}

// TestShutdownNeverStartedProc covers a process whose bootstrap event never
// fired: the goroutine is parked on the initial resume and must exit
// without running its body.
func TestShutdownNeverStartedProc(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	k.Run(0) // drain the (empty) queue
	ran := false
	k.Spawn("never", func(p *Proc) { ran = true })
	// The bootstrap transfer is queued but no Run follows: the goroutine
	// is blocked on its initial resume and must exit without running fn.
	k.Shutdown()
	if ran {
		t.Fatalf("killed-before-start proc ran its body")
	}
	waitGoroutines(t, before)
}

// TestShutdownTerminatedProcsNoop: Shutdown after a clean drain (all
// processes returned on their own) must do nothing and not block.
func TestShutdownTerminatedProcsNoop(t *testing.T) {
	k := NewKernel(1)
	n := 0
	for i := 0; i < 4; i++ {
		k.Spawn("fin", func(p *Proc) {
			p.Sleep(time.Millisecond)
			n++
		})
	}
	k.Run(0)
	k.Shutdown()
	if n != 4 {
		t.Fatalf("ran %d procs, want 4", n)
	}
}

// TestShutdownDeterministicAcrossRuns: killing parked procs must not
// perturb the simulation result of an identical later run (Shutdown only
// ever runs after the clock stops).
func TestShutdownDeterministicAcrossRuns(t *testing.T) {
	trace := func() []time.Duration {
		k := NewKernel(7)
		var ts []time.Duration
		k.Spawn("a", func(p *Proc) {
			for {
				p.Sleep(time.Duration(1+k.Rand().Intn(5)) * time.Second)
				ts = append(ts, k.Now())
			}
		})
		k.Run(30 * time.Second)
		k.Shutdown()
		return ts
	}
	a, b := trace(), trace()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
