package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestTickerStopFromCallbackThenRestart is the regression test for two
// ways a ticker ended up with two queued ticks and fired at twice its rate:
// Stop called inside the ticker's own callback used to leave the
// just-scheduled next tick alive, so a later Start double-booked it; and
// Stop then Start inside the callback armed one tick at Start and a second
// at the re-arm after the callback returned. Both the three-tier kernel and
// the pure-heap reference must fire once per period after the restart.
func TestTickerStopFromCallbackThenRestart(t *testing.T) {
	cases := []struct {
		name string
		// onTick runs inside the callback on the given tick.
		onTick    func(tk *Ticker, tick int)
		restartAt time.Duration // Start from another event; 0 for none
		want      []time.Duration
	}{
		{
			// Restart while the leaked reschedule (if any) from the stop
			// at t=30ms is still pending: with the bug, that orphan tick
			// at 40ms plus Start's own chain at 45ms give two interleaved
			// chains. Ticks: 10, 20, 30 (then Stop), restart at 35 → 45,
			// 55, ..., 95.
			name: "stop in callback, restart from another event",
			onTick: func(tk *Ticker, tick int) {
				if tick == 3 {
					tk.Stop()
				}
			},
			restartAt: 35 * time.Millisecond,
			want:      msTimes(10, 20, 30, 45, 55, 65, 75, 85, 95),
		},
		{
			// Start arms the tick at 30ms; the re-arm after the callback
			// must not arm a second one.
			name: "stop and restart in callback",
			onTick: func(tk *Ticker, tick int) {
				if tick == 2 {
					tk.Stop()
					tk.Start()
				}
			},
			want: msTimes(10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
		},
	}
	for _, tc := range cases {
		for _, pure := range []bool{false, true} {
			k := NewKernel(1)
			k.pureHeap = pure
			var times []time.Duration
			var tk *Ticker
			tk = k.Every(10*time.Millisecond, func() {
				times = append(times, k.Now())
				tc.onTick(tk, len(times))
			})
			tk.Start()
			if tc.restartAt > 0 {
				k.At(tc.restartAt, func() { tk.Start() })
			}
			k.Run(100 * time.Millisecond)
			if !tk.Running() {
				t.Errorf("%s (pure-heap %v): ticker not running after restart", tc.name, pure)
			}
			if !slices.Equal(times, tc.want) {
				t.Errorf("%s (pure-heap %v): ticks at %v, want %v", tc.name, pure, times, tc.want)
			}
		}
	}
}

// msTimes converts millisecond counts to durations.
func msTimes(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
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
// WaitList wait/wake cycle, a Queue put/get cycle and a ticker's tick must
// each cost zero heap allocations per operation.
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
	if got := allocsPerOp(n, func(k *Kernel, n int) {
		ticks := 0
		var tk *Ticker
		tk = k.Every(time.Microsecond, func() {
			if ticks++; ticks == n {
				tk.Stop()
			}
		})
		tk.Start()
	}); got != 0 {
		t.Errorf("Ticker: %d allocs/op, want 0", got)
	}
}

// chooser supplies the choices of the scheduling op mix: a seeded
// *rand.Rand for the property test, the fuzz input for FuzzScheduleMix.
type chooser interface{ Intn(n int) int }

// byteChooser draws choices from fuzz input: one byte per choice below 256,
// two above, and zeros once the input runs out.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	v := 0
	for w := 1; w < n && len(c.b) > 0; w <<= 8 {
		v = v<<8 | int(c.b[0])
		c.b = c.b[1:]
	}
	return v % n
}

// scheduleMixTrace runs a mix of At/After/Cancel/Sleep/WakeOne and ticker
// Start/Stop, its choices drawn from c, against a kernel in either the
// three-tier (ring, lane, heap) or the pure-heap reference mode and returns
// the execution trace. The op mix is a pure function of c's choices, so two
// runs diverge only if the timing structures order callbacks differently.
func scheduleMixTrace(c chooser, pure bool) []string {
	k := NewKernel(1)
	k.pureHeap = pure
	var trace []string
	rec := func(tag string, id int) {
		trace = append(trace, fmt.Sprintf("%s%d@%d", tag, id, k.Now()))
	}

	wl := NewWaitList(k)
	var tickers []*Ticker
	toggle := func() {
		tk := tickers[c.Intn(len(tickers))]
		if tk.Running() {
			tk.Stop()
		} else {
			tk.Start()
		}
	}

	var pending []Event
	nextID := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		// Delays straddle the tiers: zero-delay (the ring, or the heap in
		// reference mode), millisecond-to-second timers (the heap), and
		// the 25 ms grid the tickers run on, for exact ties against ticks
		// and against ring entries at the same instant.
		var d time.Duration
		switch c.Intn(4) {
		case 0:
			d = 0
		case 1:
			d = time.Duration(c.Intn(50)) * time.Millisecond
		case 2:
			d = time.Duration(c.Intn(2000)) * time.Millisecond
		default:
			d = time.Duration(c.Intn(40)) * 25 * time.Millisecond
		}
		ev := k.After(d, func() {
			rec("t", id)
			if depth < 3 && c.Intn(3) == 0 {
				schedule(depth + 1)
			}
			if len(pending) > 0 && c.Intn(4) == 0 {
				pending[c.Intn(len(pending))].Cancel()
			}
			// Start a ticker at this timer's (often odd) phase, or stop
			// one from outside its own callback.
			if c.Intn(5) == 0 {
				toggle()
			}
		})
		pending = append(pending, ev)
	}

	// Tickers on the 25 ms grid, two with one period, so ticks coincide
	// with each other as well as with timers. A tick may stop its own
	// ticker, stop and restart it, toggle another, schedule a timer or
	// wake a waiter through the ring at its own instant.
	for i, period := range []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond} {
		var tk *Ticker
		tk = k.Every(period, func() {
			rec("k", i)
			switch c.Intn(16) {
			case 0:
				tk.Stop()
			case 1:
				tk.Stop()
				tk.Start()
			case 2:
				toggle()
			case 3:
				schedule(2)
			case 4:
				wl.WakeOne()
			}
		})
		tickers = append(tickers, tk)
	}
	tickers[0].Start()
	tickers[1].Start()
	tickers[2].Start()

	for i := 0; i < 40; i++ {
		schedule(0)
	}
	for w := 0; w < 3; w++ {
		k.Spawn(fmt.Sprintf("waiter%d", w), func(p *Proc) {
			for i := 0; i < 5; i++ {
				wl.Wait(p)
				rec("w", w*100+i)
			}
		})
	}
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 30; i++ {
			d := time.Duration(c.Intn(80)) * time.Millisecond
			p.Sleep(d)
			rec("s", i)
			if c.Intn(2) == 0 {
				wl.WakeOne()
			}
			// Start or stop a ticker from a process.
			if c.Intn(4) == 0 {
				toggle()
			}
		}
		wl.WakeAll()
	})
	// The horizons land on the 25 ms grid, so ticks due exactly at one
	// still fire and the next ones stop the clock there. Between the two
	// runs the tickers stop from outside Run; the timers left over, and
	// any ticker they restart, run on to the second horizon.
	rec("horizon", int(k.Run(3*time.Second)))
	for _, tk := range tickers {
		tk.Stop()
	}
	rec("end", int(k.Run(20*time.Second)))
	k.Shutdown()
	return trace
}

// diffTraces describes the first difference between a three-tier trace and
// its pure-heap reference, or returns "" when they are equal.
func diffTraces(hybrid, ref []string) string {
	for i := 0; i < len(hybrid) && i < len(ref); i++ {
		if hybrid[i] != ref[i] {
			return fmt.Sprintf("traces diverge at entry %d: hybrid %q, reference %q", i, hybrid[i], ref[i])
		}
	}
	if len(hybrid) != len(ref) {
		return fmt.Sprintf("hybrid trace has %d entries, reference %d", len(hybrid), len(ref))
	}
	return ""
}

// TestHybridMatchesPureHeapReference is the property test for the timing
// structure: for 50 seeds, the kernel that merges the runnable ring and the
// tick lane against the heap must produce a byte-identical execution trace
// to the pure-heap reference over a randomized op mix.
func TestHybridMatchesPureHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		hybrid := scheduleMixTrace(rand.New(rand.NewSource(seed^0x0dd5ee)), false)
		ref := scheduleMixTrace(rand.New(rand.NewSource(seed^0x0dd5ee)), true)
		if d := diffTraces(hybrid, ref); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// FuzzScheduleMix drives the op mix of scheduleMixTrace from the fuzz input
// and fails on any difference between the three-tier kernel and the
// pure-heap reference.
func FuzzScheduleMix(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1999} {
		b := make([]byte, 128)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hybrid := scheduleMixTrace(&byteChooser{b: data}, false)
		ref := scheduleMixTrace(&byteChooser{b: data}, true)
		if d := diffTraces(hybrid, ref); d != "" {
			t.Fatal(d)
		}
	})
}

// BenchmarkTickerDispatch times one tick of a ticker set shaped like a
// goal-directed session's (a 100 ms sampler, a 250 ms goal watch, a 500 ms
// evaluator and a 1 s audit): the dispatch, a callback that only counts,
// and the re-arm.
func BenchmarkTickerDispatch(b *testing.B) {
	k := NewKernel(1)
	n := 0
	count := func() {
		if n++; n == b.N {
			k.Stop()
		}
	}
	for _, period := range []time.Duration{100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond, time.Second} {
		k.Every(period, count).Start()
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(0)
}
