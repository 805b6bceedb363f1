package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestTickerStopFromCallbackThenRestart is the regression test for the
// stop-from-callback bug: Stop called inside the ticker's own callback used
// to leave the just-scheduled next tick alive, so a later Start double-booked
// the ticker and it fired at twice the configured rate.
func TestTickerStopFromCallbackThenRestart(t *testing.T) {
	k := NewKernel(1)
	var times []time.Duration
	ticks := 0
	var tk *Ticker
	tk = k.Every(10*time.Millisecond, func() {
		ticks++
		times = append(times, k.Now())
		if ticks == 3 {
			tk.Stop()
		}
	})
	tk.Start()
	// Restart while the leaked reschedule (if any) from the stop-from-
	// callback at t=30ms is still pending: with the bug, that orphan event
	// at t=40ms plus Start's own chain at t=45ms give two interleaved tick
	// chains and the ticker fires at twice the configured rate.
	k.At(35*time.Millisecond, func() { tk.Start() })
	k.Run(100 * time.Millisecond)

	if !tk.Running() {
		t.Fatalf("ticker not running after restart")
	}
	// Ticks: 10,20,30 (then Stop), restart at 35 → 45,55,...,95. Every gap
	// after the restart must be exactly one period.
	if ticks != 9 {
		t.Fatalf("ticker fired %d times, want 9 (double-rate chain leaked?) at %v", ticks, times)
	}
	for i := 4; i < len(times); i++ {
		if d := times[i] - times[i-1]; d != 10*time.Millisecond {
			t.Fatalf("post-restart interval %v between ticks %d and %d, want 10ms (times %v)", d, i-1, i, times)
		}
	}
}

// TestCancelRemovesImmediately is the regression test for cancelled-timer
// accumulation: Cancel used to only mark the node dead, leaving it resident
// in the heap until the clock reached it — a cancel-heavy workload with
// long-horizon timers (netsim watchdogs, misbehaviour pulses) accumulated
// unbounded dead nodes. Cancel must now remove the node from the heap at
// the instant of the call, for far and near deadlines alike.
func TestCancelRemovesImmediately(t *testing.T) {
	k := NewKernel(1)

	var evs []Event
	for i := 0; i < 100; i++ {
		evs = append(evs, k.At(time.Duration(i+1)*time.Hour, func() {}))
	}
	for i := 0; i < 50; i++ {
		evs = append(evs, k.At(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if len(k.events) != 150 {
		t.Fatalf("heap holds %d timers, want 150", len(k.events))
	}
	for _, e := range evs {
		e.Cancel()
	}
	if len(k.events) != 0 {
		t.Fatalf("heap holds %d timers after cancelling all, want 0", len(k.events))
	}
	if end := k.Run(0); end != 0 {
		t.Fatalf("empty kernel ran to %v, want 0", end)
	}
}

// TestStaleEventHandleIsInert is the ABA test for the pooled timers: a
// handle to a fired or cancelled event must stay a no-op even after the
// underlying timer node is recycled for an unrelated event.
func TestStaleEventHandleIsInert(t *testing.T) {
	k := NewKernel(1)
	stale := k.At(time.Hour, func() { t.Error("cancelled event fired") })
	stale.Cancel() // node returns to the pool

	fired := false
	fresh := k.At(2*time.Hour, func() { fired = true })
	if fresh.t != stale.t {
		t.Fatalf("pool did not recycle the node; test cannot exercise ABA")
	}
	stale.Cancel() // stale generation: must NOT cancel the new occupant
	if stale.Pending() || stale.At() != 0 {
		t.Fatalf("stale handle reports pending")
	}
	if !fresh.Pending() || fresh.At() != 2*time.Hour {
		t.Fatalf("stale Cancel killed the recycled timer's new occupant")
	}
	k.Run(0)
	if !fired {
		t.Fatalf("recycled timer never fired")
	}

	// Same ABA hazard via the fire path: a handle to an event that already
	// ran must not cancel the node's next occupant either.
	ranStale := k.At(k.Now()+time.Second, func() {})
	k.Run(0)
	fired = false
	fresh2 := k.At(k.Now()+time.Second, func() { fired = true })
	ranStale.Cancel()
	if !fresh2.Pending() {
		t.Fatalf("handle to fired event cancelled the recycled node's occupant")
	}
	k.Run(0)
	if !fired {
		t.Fatalf("recycled timer never fired after stale post-fire Cancel")
	}
}

// allocsPerOp runs the kernel built by setup to completion and returns the
// heap allocations per operation, rounded down as testing.B reports them.
func allocsPerOp(n int, setup func(k *Kernel, n int)) uint64 {
	k := NewKernel(1)
	setup(k, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.Run(0)
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(n)
}

// TestHotPathZeroAllocs pins the kernel's steady-state allocation budget:
// a process sleep/wake handoff, a processor-sharing job completion, a
// WaitList wait/wake cycle and a Queue put/get cycle must each cost zero
// heap allocations per operation.
func TestHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const n = 20_000
	if got := allocsPerOp(n, func(k *Kernel, n int) {
		k.Spawn("p", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}); got != 0 {
		t.Errorf("ProcessSwitch: %d allocs/op, want 0", got)
	}
	if got := allocsPerOp(n, func(k *Kernel, n int) {
		r := NewPSResource(k, "cpu", 1000.0)
		remaining := n
		var enqueue func()
		enqueue = func() {
			if remaining <= 0 {
				return
			}
			remaining--
			r.UseAsync("x", 0.5+float64(remaining%7), enqueue)
		}
		for i := 0; i < 64 && remaining > 0; i++ {
			enqueue()
		}
	}); got != 0 {
		t.Errorf("PSResource: %d allocs/op, want 0", got)
	}
	if got := allocsPerOp(n, func(k *Kernel, n int) {
		wl := NewWaitList(k)
		k.Spawn("waiter", func(p *Proc) {
			for i := 0; i < n; i++ {
				wl.Wait(p)
			}
		})
		k.Spawn("waker", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
				wl.WakeOne()
			}
		})
	}); got != 0 {
		t.Errorf("WaitList: %d allocs/op, want 0", got)
	}
	if got := allocsPerOp(n, func(k *Kernel, n int) {
		q := NewQueue[int](k)
		k.Spawn("consumer", func(p *Proc) {
			for i := 0; i < n; i++ {
				q.Get(p)
			}
		})
		k.Spawn("producer", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
				q.Put(i)
			}
		})
	}); got != 0 {
		t.Errorf("Queue: %d allocs/op, want 0", got)
	}
}

// scheduleMixTrace runs a randomized mix of At/After/Cancel/Sleep/WakeOne
// against a kernel in either hybrid (ring+heap) or pure-heap reference mode
// and returns the execution trace. The op mix is a pure function of
// seed, so two runs diverge only if the timing structures order callbacks
// differently.
func scheduleMixTrace(seed int64, pure bool) []string {
	k := NewKernel(seed)
	k.pureHeap = pure
	rng := rand.New(rand.NewSource(seed ^ 0x0dd5ee))
	var trace []string
	rec := func(tag string, id int) {
		trace = append(trace, fmt.Sprintf("%s%d@%d", tag, id, k.Now()))
	}

	var pending []Event
	nextID := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		// Delays straddle both tiers: zero-delay (the ring, or the heap in
		// reference mode) and millisecond-to-second timers (the heap),
		// plus exact ties against ring entries at the same instant.
		var d time.Duration
		switch rng.Intn(4) {
		case 0:
			d = 0
		case 1:
			d = time.Duration(rng.Intn(50)) * time.Millisecond
		case 2:
			d = time.Duration(rng.Intn(2000)) * time.Millisecond
		default:
			d = time.Duration(rng.Intn(40)) * 25 * time.Millisecond
		}
		ev := k.After(d, func() {
			rec("t", id)
			if depth < 3 && rng.Intn(3) == 0 {
				schedule(depth + 1)
			}
			if len(pending) > 0 && rng.Intn(4) == 0 {
				pending[rng.Intn(len(pending))].Cancel()
			}
		})
		pending = append(pending, ev)
	}
	for i := 0; i < 40; i++ {
		schedule(0)
	}

	wl := NewWaitList(k)
	for w := 0; w < 3; w++ {
		w := w
		k.Spawn(fmt.Sprintf("waiter%d", w), func(p *Proc) {
			for i := 0; i < 5; i++ {
				wl.Wait(p)
				rec("w", w*100+i)
			}
		})
	}
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 30; i++ {
			d := time.Duration(rng.Intn(80)) * time.Millisecond
			p.Sleep(d)
			rec("s", i)
			if rng.Intn(2) == 0 {
				wl.WakeOne()
			}
		}
		wl.WakeAll()
	})
	k.Run(0)
	return trace
}

// TestHybridMatchesPureHeapReference is the property test for the timing
// structure: for 50 seeds, the hybrid kernel, which merges the runnable ring
// against the heap, must produce a byte-identical execution trace to the
// pure-heap reference build over a randomized At/After/Cancel/Sleep/WakeOne
// mix.
func TestHybridMatchesPureHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		hybrid := scheduleMixTrace(seed, false)
		ref := scheduleMixTrace(seed, true)
		if len(hybrid) != len(ref) {
			t.Fatalf("seed %d: hybrid trace has %d entries, reference %d", seed, len(hybrid), len(ref))
		}
		for i := range hybrid {
			if hybrid[i] != ref[i] {
				t.Fatalf("seed %d: traces diverge at entry %d: hybrid %q, reference %q", seed, i, hybrid[i], ref[i])
			}
		}
	}
}
