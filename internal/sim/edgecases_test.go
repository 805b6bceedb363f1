package sim

import (
	"testing"
	"time"
)

// TestSleepNegativeDuration: a negative duration clamps to zero - the
// process resumes at the same virtual instant instead of panicking or
// scheduling into the past.
func TestSleepNegativeDuration(t *testing.T) {
	k := NewKernel(1)
	var woke time.Duration
	ran := false
	k.At(3*time.Second, func() {
		k.Spawn("sleeper", func(p *Proc) {
			p.Sleep(-5 * time.Second)
			woke = p.Now()
			ran = true
		})
	})
	k.Run(0)
	if !ran {
		t.Fatal("sleeper never ran")
	}
	if woke != 3*time.Second {
		t.Fatalf("woke at %v, want %v (negative sleep must not move the clock)", woke, 3*time.Second)
	}
}

// TestTransferToDeadProc: handing control to an already-terminated process
// must be a no-op, not a switch into its finished coroutine.
func TestTransferToDeadProc(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("shortlived", func(p *Proc) {})
	transferred := false
	k.At(time.Second, func() {
		k.transfer(p) // p terminated at t=0
		transferred = true
	})
	end := k.Run(0)
	if !transferred {
		t.Fatal("transfer event never ran")
	}
	if end != time.Second {
		t.Fatalf("run ended at %v, want 1s", end)
	}
}

// TestSpawnAfterDrain: the kernel may be resumed with fresh processes after
// its event queue has fully drained.
func TestSpawnAfterDrain(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("first", func(p *Proc) { p.Sleep(time.Second) })
	if end := k.Run(0); end != time.Second {
		t.Fatalf("first run ended at %v, want 1s", end)
	}

	ran := false
	k.Spawn("second", func(p *Proc) {
		p.Sleep(2 * time.Second)
		ran = true
	})
	end := k.Run(0)
	if !ran {
		t.Fatal("process spawned after drain never ran")
	}
	if end != 3*time.Second {
		t.Fatalf("second run ended at %v, want 3s (1s drain + 2s sleep)", end)
	}
	if live := k.LiveProcs(); len(live) != 0 {
		t.Fatalf("live procs after drain: %v", live)
	}
}

// TestSpawnChainDeterministic: processes spawning processes with same-time
// wakeups interleave in the same order on every run with the same seed
// (FIFO by scheduling sequence, independent of the Go scheduler).
func TestSpawnChainDeterministic(t *testing.T) {
	run := func() []string {
		var order []string
		k := NewKernel(42)
		for i := 0; i < 4; i++ {
			name := string(rune('a' + i))
			k.Spawn(name, func(p *Proc) {
				order = append(order, p.Name()+"1")
				p.Sleep(0)
				order = append(order, p.Name()+"2")
				p.Sleep(time.Duration(k.Rand().Intn(3)) * time.Millisecond)
				order = append(order, p.Name()+"3")
			})
		}
		k.Run(0)
		return order
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("trial %d: %d events, want %d", trial, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d diverged at %d: %v vs %v", trial, i, got, first)
			}
		}
	}
}
