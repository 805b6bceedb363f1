package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(3*time.Second, func() { got = append(got, 3) })
	k.At(1*time.Second, func() { got = append(got, 1) })
	k.At(2*time.Second, func() { got = append(got, 2) })
	end := k.Run(0)
	if end != 3*time.Second {
		t.Fatalf("Run returned %v, want 3s", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, func() { got = append(got, i) })
	}
	k.Run(0)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEventCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.At(time.Second, func() { fired = true })
	e.Cancel()
	k.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.At(2*time.Second, func() { fired = true })
	k.At(1*time.Second, func() { e.Cancel() })
	k.Run(0)
	if fired {
		t.Fatal("event cancelled at t=1s still fired at t=2s")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(500*time.Millisecond, func() {})
	})
	k.Run(0)
}

func TestHorizonStopsClock(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.At(10*time.Second, func() { fired = true })
	end := k.Run(4 * time.Second)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if end != 4*time.Second {
		t.Fatalf("clock at %v, want horizon 4s", end)
	}
	// Resuming past the horizon runs the event.
	k.Run(0)
	if !fired {
		t.Fatal("event did not fire after resuming Run")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	var count int
	k.At(1*time.Second, func() { count++; k.Stop() })
	k.At(2*time.Second, func() { count++ })
	k.Run(0)
	if count != 1 {
		t.Fatalf("ran %d events before Stop honored, want 1", count)
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel(1)
	var wake time.Duration
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1500 * time.Millisecond)
		wake = p.Now()
	})
	k.Run(0)
	if wake != 1500*time.Millisecond {
		t.Fatalf("woke at %v, want 1.5s", wake)
	}
}

func TestProcSleepUntil(t *testing.T) {
	k := NewKernel(1)
	var times []time.Duration
	k.Spawn("s", func(p *Proc) {
		p.SleepUntil(2 * time.Second)
		times = append(times, p.Now())
		p.SleepUntil(time.Second) // in the past: no-op
		times = append(times, p.Now())
	})
	k.Run(0)
	if times[0] != 2*time.Second || times[1] != 2*time.Second {
		t.Fatalf("SleepUntil times = %v", times)
	}
}

func TestProcInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel(7)
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, name)
					p.Sleep(time.Second)
				}
			})
		}
		k.Run(0)
		return log
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic length %d vs %d", len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, first, again)
			}
		}
	}
}

func TestProcPIDsAndNames(t *testing.T) {
	k := NewKernel(1)
	p1 := k.Spawn("one", func(p *Proc) {})
	p2 := k.Spawn("two", func(p *Proc) {})
	if p1.PID() == p2.PID() {
		t.Fatal("PIDs not unique")
	}
	if p1.Name() != "one" || p2.Name() != "two" {
		t.Fatalf("names %q, %q", p1.Name(), p2.Name())
	}
	k.Run(0)
}

func TestWaitListWakeOne(t *testing.T) {
	k := NewKernel(1)
	w := NewWaitList(k)
	var woken []string
	for _, n := range []string{"a", "b"} {
		n := n
		k.Spawn(n, func(p *Proc) {
			w.Wait(p)
			woken = append(woken, n)
		})
	}
	k.At(time.Second, func() { w.WakeOne() })
	k.At(2*time.Second, func() { w.WakeOne() })
	k.Run(0)
	if len(woken) != 2 || woken[0] != "a" || woken[1] != "b" {
		t.Fatalf("woken = %v, want [a b] in FIFO order", woken)
	}
}

func TestWaitListWakeAll(t *testing.T) {
	k := NewKernel(1)
	w := NewWaitList(k)
	count := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) {
			w.Wait(p)
			count++
		})
	}
	k.At(time.Second, func() {
		if n := w.WakeAll(); n != 5 {
			t.Errorf("WakeAll returned %d, want 5", n)
		}
	})
	k.Run(0)
	if count != 5 {
		t.Fatalf("woke %d, want 5", count)
	}
	if w.Len() != 0 {
		t.Fatalf("wait list still has %d waiters", w.Len())
	}
}

func TestGroupWait(t *testing.T) {
	k := NewKernel(1)
	g := NewGroup(k)
	done := 0
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Second
		g.Go("member", func(p *Proc) {
			p.Sleep(d)
			done++
		})
	}
	var joinedAt time.Duration
	k.Spawn("parent", func(p *Proc) {
		g.Wait(p)
		joinedAt = p.Now()
	})
	k.Run(0)
	if done != 3 {
		t.Fatalf("only %d members done", done)
	}
	if joinedAt != 3*time.Second {
		t.Fatalf("parent joined at %v, want 3s", joinedAt)
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d after Wait", g.Pending())
	}
}

func TestQueuePutGet(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	k.At(time.Second, func() { q.Put(10) })
	k.At(2*time.Second, func() { q.Put(20); q.Put(30) })
	k.Run(0)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
	if q.Len() != 0 {
		t.Fatalf("queue len %d after drain", q.Len())
	}
}

func TestQueueGetBeforePut(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[string](k)
	var at time.Duration
	var v string
	k.Spawn("c", func(p *Proc) {
		v = q.Get(p)
		at = p.Now()
	})
	k.At(3*time.Second, func() { q.Put("x") })
	k.Run(0)
	if v != "x" || at != 3*time.Second {
		t.Fatalf("got %q at %v", v, at)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewKernel(42).Rand().Float64()
	b := NewKernel(42).Rand().Float64()
	if a != b {
		t.Fatalf("same seed produced %v and %v", a, b)
	}
	c := NewKernel(43).Rand().Float64()
	if a == c {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	n := 0
	tick := k.Every(time.Second, func() { n++ })
	tick.Start()
	tick.Start() // idempotent
	k.At(5500*time.Millisecond, func() { tick.Stop() })
	k.Run(10 * time.Second)
	if n != 5 {
		t.Fatalf("ticked %d times in 5.5 s, want 5", n)
	}
	if tick.Running() {
		t.Fatal("still running after Stop")
	}
	// Restartable.
	tick.Start()
	k.At(k.Now()+2500*time.Millisecond, func() { tick.Stop(); k.Stop() })
	k.Run(0)
	if n != 7 {
		t.Fatalf("restart ticked to %d, want 7", n)
	}
}

func TestTickerInvalidPeriodPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	k.Every(0, func() {})
}

func TestLiveProcsIdentifiesStuckProcess(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	k.Spawn("finishes", func(p *Proc) { p.Sleep(time.Second) })
	k.Spawn("stuck-on-queue", func(p *Proc) { q.Get(p) }) // nothing ever Puts
	k.Run(0)
	live := k.LiveProcs()
	if len(live) != 1 {
		t.Fatalf("live procs %v, want exactly the stuck one", live)
	}
	if live[0][:14] != "stuck-on-queue" {
		t.Fatalf("live proc %q", live[0])
	}
}

func TestLiveProcsEmptyWhenAllDone(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 3; i++ {
		k.Spawn("p", func(p *Proc) { p.Sleep(time.Second) })
	}
	k.Run(0)
	if live := k.LiveProcs(); live != nil {
		t.Fatalf("live procs %v after clean drain", live)
	}
}

// TestKernelEventStorm is a property test: for any random batch of events
// with interleaved cancellations, execution order is non-decreasing in time
// and cancelled events never fire.
func TestKernelEventStorm(t *testing.T) {
	prop := func(spec []uint16) bool {
		if len(spec) == 0 || len(spec) > 200 {
			return true
		}
		k := NewKernel(5)
		var fired []time.Duration
		cancelled := make(map[int]bool)
		events := make([]Event, len(spec))
		for i, s := range spec {
			i := i
			at := time.Duration(s%1000) * time.Millisecond
			events[i] = k.At(at, func() {
				fired = append(fired, k.Now())
				if cancelled[i] {
					t.Errorf("cancelled event %d fired", i)
				}
			})
			// Every third event cancels its predecessor.
			if i > 0 && s%3 == 0 && !cancelled[i-1] {
				events[i-1].Cancel()
				cancelled[i-1] = true
			}
		}
		k.Run(0)
		want := len(spec) - len(cancelled)
		if len(fired) != want {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
