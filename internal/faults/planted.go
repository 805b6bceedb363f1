package faults

import (
	"time"

	"odyssey/internal/sim"
)

// Planted self-test injectors: deterministic chaos monkeys for the
// containment plane itself. Each one breaks the *harness* — a panic in
// kernel context, a panic in a process goroutine, a zero-delay livelock —
// rather than the simulated system, so the chaos and fleet fences can be
// exercised end to end from an ordinary scenario file. The generator never
// emits these kinds; they enter a corpus only by hand (testdata) or from a
// quarantined repro.
const (
	KindTestPanic     = "test-panic"      // panic from an event callback (kernel context)
	KindTestProcPanic = "test-proc-panic" // panic from a spawned process goroutine
	KindTestLivelock  = "test-livelock"   // zero-delay self-reschedule loop
)

// planted is a bound planted kind. It fires after delay (the spec's MeanUp)
// of virtual time; the delay is fixed, not drawn from the plan's RNG, so
// the crash site and instant are identical on every run of the scenario.
type planted struct {
	kind    string
	delay   time.Duration
	ev      sim.Event
	stopped bool
}

func (t *planted) start(pl *Plan) {
	t.stopped = false
	switch t.kind {
	case KindTestPanic:
		t.ev = pl.k.After(t.delay, func() {
			//odylint:allow panicfree planted containment self-test: the chaos fence must observe a kernel-context panic
			panic("faults: planted test-panic fired")
		})
	case KindTestProcPanic:
		// The fault path recoverKill must wrap with the process identity
		// and transport to the kernel goroutine.
		pl.k.Spawn("planted-crasher", func(p *sim.Proc) {
			p.Sleep(t.delay)
			if t.stopped {
				return
			}
			//odylint:allow panicfree planted containment self-test: the fence must observe a process-goroutine panic wrapped by recoverKill
			panic("faults: planted test-proc-panic fired")
		})
	default: // KindTestLivelock: virtual time stops advancing and only the kernel's stall detector can end the run
		var spin func()
		spin = func() {
			if t.stopped {
				return
			}
			pl.k.After(0, spin)
		}
		pl.k.After(t.delay, spin)
	}
}

func (t *planted) stop() {
	t.stopped = true
	t.ev.Cancel()
	t.ev = sim.Event{}
}
