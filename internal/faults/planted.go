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

// TestPanic panics from kernel context (an event callback) after Delay of
// virtual time. The delay is fixed, not drawn from the plan's RNG, so the
// crash site and instant are identical on every run of the scenario.
type TestPanic struct {
	Delay time.Duration
	ev    sim.Event
}

func (t *TestPanic) Name() string { return KindTestPanic }

func (t *TestPanic) Start(pl *Plan) {
	t.ev = pl.k.After(t.Delay, func() {
		//odylint:allow panicfree planted containment self-test: the chaos fence must observe a kernel-context panic
		panic("faults: planted test-panic fired")
	})
}

func (t *TestPanic) Stop() {
	t.ev.Cancel()
	t.ev = sim.Event{}
}

// TestProcPanic spawns a process that panics after Delay — the fault path
// recoverKill must wrap with the process identity and transport to the
// kernel goroutine.
type TestProcPanic struct {
	Delay   time.Duration
	stopped bool
}

func (t *TestProcPanic) Name() string { return KindTestProcPanic }

func (t *TestProcPanic) Start(pl *Plan) {
	t.stopped = false
	pl.k.Spawn("planted-crasher", func(p *sim.Proc) {
		p.Sleep(t.Delay)
		if t.stopped {
			return
		}
		//odylint:allow panicfree planted containment self-test: the fence must observe a process-goroutine panic wrapped by recoverKill
		panic("faults: planted test-proc-panic fired")
	})
}

func (t *TestProcPanic) Stop() { t.stopped = true }

// TestLivelock enters a zero-delay self-reschedule loop after Delay: virtual
// time stops advancing and only the kernel's stall detector can end the run.
type TestLivelock struct {
	Delay   time.Duration
	stopped bool
}

func (t *TestLivelock) Name() string { return KindTestLivelock }

func (t *TestLivelock) Start(pl *Plan) {
	t.stopped = false
	var spin func()
	spin = func() {
		if t.stopped {
			return
		}
		pl.k.After(0, spin)
	}
	pl.k.After(t.Delay, spin)
}

func (t *TestLivelock) Stop() { t.stopped = true }
