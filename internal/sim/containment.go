package sim

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Containment: structured fault transport out of the simulation.
//
// A panic inside a process body unwinds that process's coroutine, whose
// raw value says nothing about which simulated process died, and would end
// the coroutine before the process could be marked dead. recoverKill
// therefore converts every non-sentinel panic into a *ProcPanic stored on
// the kernel and lets the coroutine end through its normal return, and the
// kernel re-raises the wrapped fault on its own goroutine as soon as the
// baton returns (in transfer, or in Shutdown for faults thrown during
// teardown). The net effect: any panic anywhere in simulation code
// surfaces as a panic unwinding Kernel.Run, carrying the guilty process's
// identity and a deterministic stack, where the chaos and fleet fences can
// recover it.
//
// The same layer hosts the virtual-time stall detector: the kernel counts
// events dispatched since the clock last advanced and trips a bound,
// unwinding Run with a structured *ErrStall snapshot of the timing
// structure. See DESIGN.md "Containment plane".

// ProcPanic wraps a panic recovered from a simulation process coroutine
// with the identity of the process that died and a deterministic stack of
// the panic site. It unwinds Kernel.Run (re-raised on the kernel goroutine)
// so one recover around Run observes process faults and kernel-context
// faults alike.
type ProcPanic struct {
	Proc  string // process name given at Spawn
	PID   int
	Value any    // the recovered panic value
	Stack string // deterministic stack (CallerStack) of the panic site
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q (pid %d) panicked: %v", e.Proc, e.PID, e.Value)
}

// DefaultStallBound is the number of events the kernel may dispatch at a
// single virtual instant before declaring a livelock. Real workloads drain
// same-instant cascades (process wakes, zero-delay sleeps, PS preemption
// churn) in at most a few thousand dispatches per instant; a million means
// something is rescheduling itself at zero delay forever and virtual time
// will never advance.
const DefaultStallBound = 1_000_000

// ErrStall reports a virtual-time stall: the kernel dispatched Dispatches
// events without the clock advancing past Now. It carries a snapshot of the
// timing structure so a triage report can show what kept rescheduling.
type ErrStall struct {
	Now        time.Duration // the instant the clock is stuck at
	Dispatches int           // same-instant dispatches when the bound tripped
	RingLen    int           // zero-delay runnables queued
	HeapLen    int           // timed events queued: heap timers and armed ticks
	Runnable   []string      // names of the next few ring occupants
}

func (e *ErrStall) Error() string {
	s := fmt.Sprintf("sim: virtual time stalled at %v after %d same-instant dispatches (ring=%d heap=%d)",
		e.Now, e.Dispatches, e.RingLen, e.HeapLen)
	if len(e.Runnable) > 0 {
		s += " runnable: " + strings.Join(e.Runnable, ", ")
	}
	return s
}

// SetStallBound overrides the stall detector's dispatch bound. n <= 0
// disables detection (the pure-heap reference tests and micro-benchmarks
// that legitimately hammer one instant can opt out). The counter resets
// whenever the clock advances, so the bound only limits work per virtual
// instant, never total work.
func (k *Kernel) SetStallBound(n int) { k.stallBound = n }

// tripStall unwinds the run loop with a structured stall report. It runs in
// kernel context, so the panic propagates out of Kernel.Run directly; any
// parked processes are left for the caller's Shutdown to unwind.
func (k *Kernel) tripStall() {
	//odylint:allow hotalloc containment cold path: runs once per simulation, only when the run is already being aborted
	st := &ErrStall{
		Now:        k.now,
		Dispatches: k.sinceAdvance,
		RingLen:    k.ringLen,
		HeapLen:    len(k.events) + len(k.lane),
	}
	for i := 0; i < k.ringLen && len(st.Runnable) < 8; i++ {
		re := &k.ring[(k.ringHead+i)&(len(k.ring)-1)]
		if re.p != nil {
			//odylint:allow hotalloc containment cold path: snapshot built once, as the run aborts
			st.Runnable = append(st.Runnable, fmt.Sprintf("%s (pid %d)", re.p.name, re.p.pid))
		} else {
			//odylint:allow hotalloc containment cold path: snapshot built once, as the run aborts
			st.Runnable = append(st.Runnable, "callback")
		}
	}
	//odylint:allow panicfree stall containment: unwinds Run with a structured ErrStall for the chaos/fleet fences to recover
	panic(st)
}

// CallerStack captures the calling goroutine's stack as a deterministic
// one-frame-per-pair listing ("func\n\tfile:line\n"). Unlike debug.Stack it
// contains no goroutine ids, argument words, or addresses, so two runs of
// the same seed produce byte-identical stacks — the property the chaos
// plane's byte-identical resume reports rely on. skip counts frames to omit
// above the caller (0 starts at CallerStack's caller). Frames inside the
// runtime and iter packages (panic and coroutine plumbing) are elided: they
// name GOROOT paths and toolchain-specific lines.
func CallerStack(skip int) string {
	var pcs [64]uintptr
	n := runtime.Callers(skip+2, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	var b strings.Builder
	for {
		f, more := frames.Next()
		if f.Function != "" && !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "iter.") {
			//odylint:allow hotalloc containment cold path: stacks are captured only while transporting a fault out
			fmt.Fprintf(&b, "%s\n\t%s:%d\n", f.Function, f.File, f.Line)
		}
		if !more {
			break
		}
	}
	return b.String()
}
