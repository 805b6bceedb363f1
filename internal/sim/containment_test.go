package sim

import (
	"strings"
	"testing"
	"time"
)

// A panic inside a process body must surface out of Kernel.Run as a
// *ProcPanic naming the process, not as the raw value, and not by killing
// the program from an unrecoverable goroutine.
func TestProcPanicWrapsProcessIdentity(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("planted fault")
	})
	var got *ProcPanic
	func() {
		defer func() {
			r := recover()
			pp, ok := r.(*ProcPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
			}
			got = pp
		}()
		k.Run(time.Second)
		t.Fatal("Run returned without panicking")
	}()
	if got.Proc != "victim" || got.PID != 1 {
		t.Errorf("fault identity = %q pid %d, want victim pid 1", got.Proc, got.PID)
	}
	if got.Value != "planted fault" {
		t.Errorf("fault value = %v, want planted fault", got.Value)
	}
	if !strings.Contains(got.Stack, "containment_test.go") {
		t.Errorf("stack does not point at the panic site:\n%s", got.Stack)
	}
	// The stack ends at the Spawn closure that runs the body: no frame of
	// the runtime's or iter.Pull's coroutine plumbing (GOROOT paths,
	// toolchain-specific lines) may follow it or appear anywhere else.
	var funcs []string
	for _, line := range strings.Split(strings.TrimSuffix(got.Stack, "\n"), "\n") {
		if !strings.HasPrefix(line, "\t") {
			funcs = append(funcs, line)
		}
	}
	if n := len(funcs); n == 0 || !strings.HasPrefix(funcs[n-1], "odyssey/internal/sim.(*Kernel).Spawn.func") {
		t.Errorf("last stack frame is not the Spawn closure:\n%s", got.Stack)
	}
	for _, fn := range funcs {
		if !strings.HasPrefix(fn, "odyssey/") {
			t.Errorf("stack frame %q lies outside the module:\n%s", fn, got.Stack)
		}
	}
	if !strings.Contains(got.Error(), `"victim"`) || !strings.Contains(got.Error(), "planted fault") {
		t.Errorf("Error() = %q, want process name and value", got.Error())
	}
	// The rig must still be tear-downable: the other machinery is intact.
	k.Shutdown()
}

// After a process fault unwinds Run, Shutdown must still unwind every other
// parked process so the rig's goroutines are reclaimed.
func TestShutdownAfterProcessFault(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bystander", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	k.Spawn("victim", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		panic("boom")
	})
	func() {
		defer func() {
			if _, ok := recover().(*ProcPanic); !ok {
				t.Fatal("expected a *ProcPanic")
			}
		}()
		k.Run(time.Second)
	}()
	k.Shutdown()
	if live := k.LiveProcs(); len(live) != 0 {
		t.Errorf("live processes after Shutdown: %v", live)
	}
}

// A zero-delay self-reschedule loop must trip the stall detector with a
// structured snapshot instead of hanging the run loop forever. The
// snapshot's heap count covers every queued timed event, a running
// ticker's armed tick included.
func TestStallDetectorTripsOnZeroDelayLoop(t *testing.T) {
	stall := func(withTicker bool) *ErrStall {
		k := NewKernel(1)
		k.SetStallBound(5000)
		if withTicker {
			// Armed at 1 s, the tick stays queued through the livelock.
			k.Every(time.Second, func() {}).Start()
		}
		// Ping-pong: two processes waking each other through the runnable
		// ring at one instant, with a spinning callback for company.
		wl := NewWaitList(k)
		for _, name := range []string{"ping", "pong"} {
			k.Spawn(name, func(p *Proc) {
				p.Sleep(time.Millisecond)
				for {
					wl.WakeOne()
					p.Sleep(0)
				}
			})
		}
		var spin func()
		spin = func() { k.After(0, spin) }
		k.After(time.Millisecond, spin)
		defer k.Shutdown()

		var st *ErrStall
		func() {
			defer func() {
				r := recover()
				s, ok := r.(*ErrStall)
				if !ok {
					t.Fatalf("recovered %T (%v), want *ErrStall", r, r)
				}
				st = s
			}()
			k.Run(time.Second)
			t.Fatal("Run returned; stall not detected")
		}()
		return st
	}
	st := stall(false)
	if st.Now != time.Millisecond {
		t.Errorf("stalled at %v, want 1ms", st.Now)
	}
	if st.Dispatches < 5000 {
		t.Errorf("dispatches = %d, want >= bound", st.Dispatches)
	}
	if st.RingLen == 0 && st.HeapLen == 0 {
		t.Error("snapshot shows an empty timing structure during a livelock")
	}
	if !strings.Contains(st.Error(), "stalled at 1ms") {
		t.Errorf("Error() = %q", st.Error())
	}
	ticked := stall(true)
	if ticked.Now != st.Now || ticked.Dispatches != st.Dispatches || ticked.RingLen != st.RingLen {
		t.Errorf("a ticker queued at 1 s moved the stall: %v, want %v", ticked, st)
	}
	if ticked.HeapLen != st.HeapLen+1 {
		t.Errorf("heap count with a running ticker = %d, want %d (the armed tick counts)", ticked.HeapLen, st.HeapLen+1)
	}
}

// The detector counts per-instant work, not total work: a heavy but
// clock-advancing simulation must never trip it.
func TestStallDetectorResetsOnClockAdvance(t *testing.T) {
	k := NewKernel(1)
	k.SetStallBound(100)
	n := 0
	k.Spawn("worker", func(p *Proc) {
		for i := 0; i < 5000; i++ {
			// 50 same-instant yields per microsecond: over bound in total,
			// under bound per instant.
			if i%50 == 49 {
				p.Sleep(time.Microsecond)
			} else {
				p.Sleep(0)
			}
			n++
		}
	})
	k.Run(time.Second)
	if n != 5000 {
		t.Errorf("worker ran %d iterations, want 5000", n)
	}
	k.Shutdown()
}

// SetStallBound(0) disables detection entirely.
func TestStallDetectorDisabled(t *testing.T) {
	k := NewKernel(1)
	k.SetStallBound(0)
	n := 0
	k.Spawn("spinner", func(p *Proc) {
		for n < 2_100_000 {
			n++
			p.Sleep(0)
		}
	})
	k.Run(time.Second)
	if n != 2_100_000 {
		t.Errorf("spinner ran %d same-instant iterations, want 2.1M", n)
	}
	k.Shutdown()
}

// CallerStack output must be deterministic across invocations from the same
// site — the property byte-identical chaos reports depend on.
func TestCallerStackDeterministic(t *testing.T) {
	grab := func() string { return CallerStack(0) }
	a, b := grab(), grab()
	if a != b {
		t.Errorf("stacks differ:\n%s\nvs\n%s", a, b)
	}
	if strings.Contains(a, "goroutine ") {
		t.Errorf("stack carries goroutine header: %s", a)
	}
	if !strings.Contains(a, "TestCallerStackDeterministic") {
		t.Errorf("stack missing caller frame:\n%s", a)
	}
}
