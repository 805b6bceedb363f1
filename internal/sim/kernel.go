//go:build go1.23

// This constraint stands in for a go.mod bump: it sets the file's language
// version to go1.23, which go vet requires for iter.Pull, while go.mod stays
// at go 1.22 so the bench module, which requires this one, keeps building.

// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock through a timing structure of three
// tiers — a runnable ring for zero-delay work, a tick lane holding the next
// tick of each running Ticker, and a binary heap for every other timed
// event — serviced in one global (time, sequence) order. Model code
// runs either as plain event callbacks (see Kernel.At) or as processes:
// coroutines (iter.Pull) that interleave with the kernel under a strict
// one-runnable-at-a-time handshake, so that a simulation is fully
// deterministic for a given seed regardless of the Go scheduler.
//
// The package also provides the shared building blocks used throughout the
// Odyssey reproduction: processor-sharing resources (used for both the CPU
// and the wireless link), FIFO queues, condition-style wait lists, and
// cancellable timers.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"time"
)

// timer is the kernel-internal scheduled-callback node. Timers are pooled:
// when one fires or is cancelled it returns to the kernel's free list and
// its generation counter is bumped, so a stale Event handle can never
// cancel the timer's next occupant (see Event).
type timer struct {
	k     *Kernel
	at    time.Duration
	seq   uint64
	gen   uint64
	fn    func()
	index int // heap index; timerIdle when not queued
}

const timerIdle = -1

// Event is a cancellable handle to a scheduled callback, returned by the
// scheduling methods. It is a value type: the zero Event is valid and all
// its methods are no-ops. The handle pairs a pooled timer with the
// generation it was issued for, so operating on an Event whose callback
// has already fired (or been cancelled) is always safe even though the
// underlying timer may since have been recycled for an unrelated event.
type Event struct {
	t   *timer
	gen uint64
}

// At reports the virtual time the event is scheduled to fire, or 0 if the
// event already fired, was cancelled, or is the zero Event.
func (e Event) At() time.Duration {
	if !e.Pending() {
		return 0
	}
	return e.t.at
}

// Pending reports whether the event is still queued to fire.
func (e Event) Pending() bool {
	return e.t != nil && e.t.gen == e.gen
}

// Cancel prevents a pending event from firing, removing it from the heap
// immediately via its maintained index, so repeatedly cancelled
// long-horizon timers cost no residual memory. Cancelling an event that has
// already fired (or was already cancelled) is a no-op: the generation check
// rejects the stale handle.
func (e Event) Cancel() {
	tm := e.t
	if tm == nil || tm.gen != e.gen {
		return
	}
	tm.k.recycleTimer(tm.k.events.remove(tm.index))
}

// eventHeap is a binary min-heap of timers ordered by (at, seq). Sequence
// numbers are unique, so the order is total and the pop sequence is fixed
// by the timers alone, whatever the heap's internal layout. Every queued
// timer's index field holds its slot, so Cancel can remove it in O(log n).
type eventHeap []*timer

// before reports whether a fires before b.
func (a *timer) before(b *timer) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push adds tm to the heap.
func (h *eventHeap) push(tm *timer) {
	//odylint:allow hotalloc heap growth is amortized: the backing array is retained across events
	*h = append(*h, tm)
	h.up(len(*h) - 1)
}

// remove deletes and returns the timer in slot i; remove(0) pops the
// earliest. The removed timer's index is reset to timerIdle.
func (h *eventHeap) remove(i int) *timer {
	s := *h
	n := len(s) - 1
	tm := s[i]
	s[i] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if i < n && !s.down(i) {
		s.up(i)
	}
	tm.index = timerIdle
	return tm
}

// up sifts the timer in slot j toward the root.
func (h eventHeap) up(j int) {
	tm := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !tm.before(h[i]) {
			break
		}
		h[j] = h[i]
		h[j].index = j
		j = i
	}
	h[j] = tm
	tm.index = j
}

// down sifts the timer in slot i0 toward the leaves and reports whether it
// moved.
func (h eventHeap) down(i0 int) bool {
	tm := h[i0]
	i := i0
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if r := j + 1; r < len(h) && h[r].before(h[j]) {
			j = r
		}
		if !h[j].before(tm) {
			break
		}
		h[i] = h[j]
		h[i].index = i
		i = j
	}
	h[i] = tm
	tm.index = i
	return i > i0
}

// ringEntry is one zero-delay runnable: either a process to hand the baton
// to or a callback to invoke. Entries carry the (at, seq) pair they would
// have had as heap events, so the run loop can merge the ring against the
// lane and the heap in the exact global order a pure-heap kernel would
// produce.
type ringEntry struct {
	at  time.Duration
	seq uint64
	p   *Proc
	fn  func()
}

// laneEntry is the armed next tick of one running Ticker, carrying the
// (at, seq) pair it would have had as a heap event.
type laneEntry struct {
	at  time.Duration
	seq uint64
	t   *Ticker
}

// earlier reports whether the event keyed (at, seq) precedes the one keyed
// (bt, bs) in the kernel's global order.
func earlier(at time.Duration, seq uint64, bt time.Duration, bs uint64) bool {
	return at < bt || (at == bt && seq < bs)
}

// Kernel is the simulation executive: a virtual clock plus a three-tier
// timing structure (runnable ring, tick lane, event heap). A Kernel must be
// created with NewKernel. Kernels are not safe for use from multiple
// goroutines except through the process handshake managed here.
type Kernel struct {
	now time.Duration
	seq uint64
	rng *rand.Rand

	// events holds every timed event that is not a tick. Its top, merged
	// against the ring front and the lane's next tick, is a candidate for
	// the next event to dispatch.
	events eventHeap
	free   []*timer // timer pool; recycled nodes with bumped generations

	// lane holds the armed tick of each running ticker, sorted by
	// (at, seq) latest first, so the next tick is the last entry and
	// dispatching it is a reslice. A session runs a handful of tickers, so
	// a sorted slice beats the heap; its backing array is retained across
	// ticks.
	lane []laneEntry

	// ring is a circular FIFO of zero-delay runnables (always a power of
	// two long). Entries are pushed with at == now, so the ring is sorted
	// by (at, seq) by construction.
	ring     []ringEntry
	ringHead int
	ringLen  int

	// pureHeap disables the ring and the lane so every event, zero-delay
	// hand-offs and ticks included, goes through the heap — the reference
	// scheduling mode the property tests compare the three-tier kernel
	// against. Test-only.
	pureHeap bool

	nextPID int
	current *Proc // process currently holding control, nil in kernel context
	procs   []*Proc

	running bool
	stopped bool

	// fault carries a panic recovered in a process coroutine back to the
	// kernel, which re-raises it once it holds the baton again (see
	// containment.go).
	fault *ProcPanic

	// Stall detection: sinceAdvance counts events dispatched since the
	// clock last advanced; when it reaches stallBound the kernel unwinds
	// with *ErrStall. stallBound <= 0 disables detection.
	sinceAdvance int
	stallBound   int
}

// NewKernel returns a kernel with its clock at zero and a deterministic
// random source derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:        rand.New(rand.NewSource(seed)),
		stallBound: DefaultStallBound,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// newTimer returns a pooled timer node, allocating only when the free list
// is empty.
func (k *Kernel) newTimer() *timer {
	if n := len(k.free); n > 0 {
		tm := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return tm
	}
	//odylint:allow hotalloc pool refill is amortized: a recycled timer serves every later event scheduled through it
	return &timer{k: k, index: timerIdle}
}

// recycleTimer returns a fired or cancelled timer to the pool, bumping its
// generation so outstanding Event handles go stale.
func (k *Kernel) recycleTimer(tm *timer) {
	tm.gen++
	tm.fn = nil
	tm.index = timerIdle
	//odylint:allow hotalloc free-list growth is amortized: capacity is retained across events
	k.free = append(k.free, tm)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
func (k *Kernel) At(t time.Duration, fn func()) Event {
	if t < k.now {
		//odylint:allow panicfree,hotalloc scheduling into the past breaks causality; the Sprintf boxing is on the doomed path only
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	tm := k.newTimer()
	tm.at = t
	tm.seq = k.seq
	tm.fn = fn
	k.events.push(tm)
	//odylint:allow hotalloc Event is a two-word value handle returned on the stack; nothing escapes
	return Event{t: tm, gen: tm.gen}
}

// After schedules fn to run d from now.
func (k *Kernel) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// runNext schedules a zero-delay runnable — a process hand-off (p != nil)
// or a callback — on the runnable ring. Ring entries consume a sequence
// number exactly as a heap event would, and the run loop merges the ring
// against the lane and the heap by (at, seq), so runNext is observationally
// identical to After(0, ...) minus the closure and heap traffic. In the
// pure-heap reference mode it degrades to exactly that.
func (k *Kernel) runNext(p *Proc, fn func()) {
	if k.pureHeap {
		if p != nil {
			fn = p.wakeFn
		}
		k.At(k.now, fn)
		return
	}
	k.seq++
	if k.ringLen == len(k.ring) {
		k.growRing()
	}
	i := (k.ringHead + k.ringLen) & (len(k.ring) - 1)
	//odylint:allow hotalloc value write into the retained ring backing array; no heap allocation
	k.ring[i] = ringEntry{at: k.now, seq: k.seq, p: p, fn: fn}
	k.ringLen++
}

// growRing doubles the ring's capacity (to a power of two), unwrapping the
// circular contents in order.
func (k *Kernel) growRing() {
	n := len(k.ring) * 2
	if n == 0 {
		n = 16
	}
	//odylint:allow hotalloc ring growth is amortized: capacity doubles and is retained for the kernel's lifetime
	next := make([]ringEntry, n)
	for i := 0; i < k.ringLen; i++ {
		next[i] = k.ring[(k.ringHead+i)&(len(k.ring)-1)]
	}
	k.ring = next
	k.ringHead = 0
}

// Stop halts the run loop after the current event completes. Pending events
// remain queued; Run may be called again to resume.
func (k *Kernel) Stop() { k.stopped = true }

// Shutdown terminates every live process coroutine and must be the kernel's
// final act: call it from normal Go context after Run has returned, never
// from an event callback or a process, and do not Run the kernel again.
//
// Run exits at the horizon (or on Stop) with processes still suspended in
// park; each suspended coroutine pins its goroutine's stack and, through
// it, the whole rig. A simulation that builds many kernels — the fleet and
// chaos planes build one per session — would otherwise grow memory with
// session count, not worker count. Shutdown walks the process table in
// spawn order and, for each live process, sets the killed flag and hands it
// the baton one last time: park (or, for a process that never ran, the
// start of its coroutine in Spawn) observes the flag and unwinds via the
// procKilled sentinel, runProc recovers it, and the coroutine returns,
// handing the baton back as it ends. The walk order is deterministic, but
// no simulation code runs during it — only deferred cleanup in process
// bodies, which must not park again.
func (k *Kernel) Shutdown() {
	if k.running {
		//odylint:allow panicfree Shutdown from kernel context would switch processes out of turn; invariant guard
		panic("sim: Kernel.Shutdown called while running")
	}
	for _, p := range k.procs {
		if p.dead {
			continue
		}
		p.killed = true
		p.next()
	}
	if k.fault != nil {
		// A process's deferred cleanup panicked while unwinding. Every
		// coroutine has ended by now, so the wrapped fault can be re-raised
		// safely here. Only the last such fault survives a multi-fault
		// teardown — acceptable for what is already a double failure.
		f := k.fault
		k.fault = nil
		//odylint:allow panicfree fault transport: re-raising a process panic recovered during teardown
		panic(f)
	}
}

// Run executes events in (timestamp, sequence) order until the queue is
// empty, Stop is called, or the clock would pass horizon (use horizon <= 0
// for no limit). It returns the virtual time at exit.
//
// Each iteration services the runnable ring front, the tick lane's next
// tick or the heap top, whichever carries the smallest (at, seq) pair —
// the same total order a single heap would produce, at ring-pop cost for
// the zero-delay traffic that dominates process scheduling and at
// slice cost for the fixed-period ticks that dominate timed events.
func (k *Kernel) Run(horizon time.Duration) time.Duration {
	if k.running {
		//odylint:allow panicfree re-entrant Run corrupts the handshake; invariant guard
		panic("sim: Kernel.Run re-entered")
	}
	k.running = true
	k.stopped = false
	k.sinceAdvance = 0
	//odylint:allow hotalloc once per Run call, not per event: the deferred reset runs when the loop exits
	defer func() { k.running = false }()

	for !k.stopped {
		// The earliest timed event is the lane's next tick or the heap top.
		next := len(k.lane) - 1
		tick := next >= 0
		if tick && len(k.events) > 0 {
			tick = earlier(k.lane[next].at, k.lane[next].seq, k.events[0].at, k.events[0].seq)
		}
		if k.ringLen > 0 {
			re := &k.ring[k.ringHead]
			ringFirst := true
			if tick {
				ringFirst = earlier(re.at, re.seq, k.lane[next].at, k.lane[next].seq)
			} else if len(k.events) > 0 {
				ringFirst = earlier(re.at, re.seq, k.events[0].at, k.events[0].seq)
			}
			if ringFirst {
				// Ring entries were scheduled at (or before) the current
				// clock reading, so servicing one never advances the
				// clock and never crosses the horizon.
				if k.stallBound > 0 {
					if k.sinceAdvance++; k.sinceAdvance >= k.stallBound {
						k.tripStall()
					}
				}
				p, fn := re.p, re.fn
				re.p, re.fn = nil, nil
				k.ringHead = (k.ringHead + 1) & (len(k.ring) - 1)
				k.ringLen--
				if p != nil {
					k.transfer(p)
				} else {
					fn()
				}
				continue
			}
		}
		// Otherwise the next event is timed: the lane's next tick or the
		// heap top.
		var at time.Duration
		if tick {
			at = k.lane[next].at
		} else if len(k.events) > 0 {
			at = k.events[0].at
		} else {
			break
		}
		if horizon > 0 && at > horizon {
			k.now = horizon
			break
		}
		var t *Ticker
		var fn func()
		if tick {
			t = k.lane[next].t
			k.removeLane(next)
		} else {
			tm := k.events.remove(0)
			fn = tm.fn
			// Recycle before dispatch: a handle cancelled from within its
			// own callback is already stale, matching fired-event semantics.
			k.recycleTimer(tm)
		}
		if at > k.now {
			k.sinceAdvance = 0
		} else if k.stallBound > 0 {
			if k.sinceAdvance++; k.sinceAdvance >= k.stallBound {
				k.tripStall()
			}
		}
		k.now = at
		if t != nil {
			t.fire()
		} else {
			fn()
		}
	}
	return k.now
}

// pushLane queues t's armed tick, due at at. Its seq is the newest the
// kernel has issued, so it goes before (later than) every entry due at or
// before at, and only those entries shift.
func (k *Kernel) pushLane(t *Ticker, at time.Duration) {
	//odylint:allow hotalloc lane growth is amortized: the backing array is retained across ticks
	k.lane = append(k.lane, laneEntry{})
	i := len(k.lane) - 1
	for i > 0 && k.lane[i-1].at <= at {
		k.lane[i] = k.lane[i-1]
		i--
	}
	//odylint:allow hotalloc value write into the retained lane backing array; no heap allocation
	k.lane[i] = laneEntry{at: at, seq: t.seq, t: t}
}

// removeLane removes the lane entry in slot i and disarms its ticker,
// clearing the vacated tail slot so the retained backing array pins no
// stopped ticker. Removing the next tick, the last entry, shifts nothing.
func (k *Kernel) removeLane(i int) {
	k.lane[i].t.seq = 0
	n := len(k.lane) - 1
	if i < n {
		copy(k.lane[i:], k.lane[i+1:])
	}
	//odylint:allow hotalloc zeroing a value slot of the retained lane backing array; no heap allocation
	k.lane[n] = laneEntry{}
	k.lane = k.lane[:n]
}

// Proc is a simulation process: a coroutine interleaved with the kernel.
// All Proc methods must be called from the process's own coroutine.
type Proc struct {
	k    *Kernel
	pid  int
	name string
	// next and yield are the two ends of the process's iter.Pull coroutine:
	// next runs it until it parks or ends, yield suspends it (see the
	// happens-before contract below).
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	dead   bool
	killed bool
	wakeFn func() // hoisted k.transfer(p) closure, allocated once at Spawn
}

// PID returns the process identifier (unique within a kernel, starting at 1).
func (p *Proc) PID() int { return p.pid }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Spawn creates a process that starts running at the current virtual time.
// fn runs as a coroutine on its own goroutine; when it returns the process
// terminates.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	k.nextPID++
	//odylint:allow hotalloc once per spawn: the Proc lives for the process's lifetime
	p := &Proc{k: k, pid: k.nextPID, name: name}
	//odylint:allow hotalloc once per spawn: the hoisted wake closure then serves every timed wake-up
	p.wakeFn = func() { k.transfer(p) }
	//odylint:allow hotalloc once per spawn: the process table grows by one entry per process
	k.procs = append(k.procs, p)
	// The coroutine first runs when transfer (or Shutdown) calls next;
	// returning from the body ends it and hands the baton back for good.
	//odylint:allow hotalloc once per spawn: one coroutine body per process
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		if !p.killed {
			runProc(p, fn)
		}
		p.dead = true
	})
	k.runNext(p, nil)
	return p
}

// procKilled is the panic sentinel park throws to unwind a process during
// Kernel.Shutdown. It never escapes runProc. The single pre-boxed value
// keeps the kill path allocation-free (park is on the kernel hot path).
type procKilled struct{}

var killSentinel any = procKilled{}

// runProc executes the process body, converting a Shutdown-induced unwind
// back into a normal return so the coroutine in Spawn still ends normally.
// Any other panic is wrapped with the process's identity and transported to
// the kernel (see recoverKill).
func runProc(p *Proc, fn func(p *Proc)) {
	defer p.recoverKill()
	fn(p)
}

// recoverKill absorbs the Shutdown kill sentinel. Any other panic is wrapped
// in a *ProcPanic naming the process that died — the raw value alone would
// leave a crash report unable to say which simulated process was at fault —
// and parked on k.fault rather than re-raised, so the coroutine still ends
// through its normal return (marking the process dead) and the kernel
// re-raises the wrapped fault from transfer (or Shutdown) once it holds the
// baton again. It must be the deferred function itself so recover takes
// effect.
func (p *Proc) recoverKill() {
	if r := recover(); r != nil {
		if _, ok := r.(procKilled); ok {
			return
		}
		//odylint:allow hotalloc containment cold path: wraps a fault once, as the process dies
		p.k.fault = &ProcPanic{Proc: p.name, PID: p.pid, Value: r, Stack: CallerStack(1)}
	}
}

// Concurrency and happens-before contract
//
// The kernel and its processes form a baton-passing system: at any instant
// exactly one goroutine - either the one running the kernel's Run loop or
// a single process - executes simulation code. Each process is a coroutine
// built by iter.Pull in Spawn, and the baton passes by coroutine switch
// through the two functions iter.Pull hands out:
//
//	kernel -> process:  p.next()            (in transfer, and Shutdown's kill)
//	process -> kernel:  p.yield(struct{}{}) (in park), or the body returning
//
// A switch suspends the caller and resumes the other side on the same OS
// thread, without a trip through the Go scheduler's run queue; the caller
// stays suspended until the baton comes back. iter.Pull marks every switch
// as a release/acquire pair, so each hand-off is a synchronization point
// giving two happens-before edges:
//
//  1. Everything the kernel did before transfer(p) happens-before
//     everything p does after its park returns (or its body starts).
//  2. Everything p did before parking (or returning) happens-before
//     everything the kernel does after transfer returns.
//
// By induction over hand-offs, all simulation state - kernel fields, the
// event heap, model state shared between processes - is totally ordered by
// the baton. That is why none of it carries locks, why the race detector
// stays quiet although processes run on distinct goroutines, and why a
// run's schedule depends only on the seed, never on the Go scheduler.
//
// The runnable ring does not weaken the contract: a ring entry is only a
// record of a pending hand-off, pushed while its creator holds the baton
// and consumed by the kernel's Run loop, which performs the actual
// transfer. Handing the baton over still happens exclusively through next
// and yield; the ring merely replaces the heap as the place the pending
// hand-off waits its deterministic (at, seq) turn.
//
// The contract imposes two obligations:
//
//   - Only transfer, park, Spawn, and Shutdown may touch a process's next
//     and yield (enforced by odylint's kernelctx analyzer). A call anywhere
//     else would run a process out of turn - mid-callback, or nested inside
//     another process's turn - breaking the (at, seq) order every
//     determinism guarantee rests on, or make iter.Pull panic on a switch
//     issued from the wrong side.
//   - Processes must not communicate outside the baton (no extra channels,
//     no sync primitives): such communication is invisible to the virtual
//     clock and would re-introduce Go-scheduler dependence.

// transfer hands control to p and returns once p parks or ends. Must be
// called from kernel context (inside an event callback).
func (k *Kernel) transfer(p *Proc) {
	if p.dead {
		return
	}
	prev := k.current
	k.current = p
	p.next()
	k.current = prev
	if k.fault != nil {
		f := k.fault
		k.fault = nil
		// Re-raise the transported process fault now that the kernel
		// holds the baton again: from here it unwinds Kernel.Run into
		// whatever fence the caller installed.
		//odylint:allow panicfree fault transport: re-raising the wrapped process panic on the kernel's goroutine
		panic(f)
	}
}

// park suspends the calling process until another party resumes it via
// kernel.transfer. It must only be called from the process's coroutine.
func (p *Proc) park() {
	//odylint:allow hotalloc struct{} is zero-size: the literal never allocates
	p.yield(struct{}{})
	if p.killed {
		//odylint:allow panicfree kill sentinel; recovered by runProc, never escapes the process coroutine
		panic(killSentinel)
	}
}

// Sleep suspends the process for d of virtual time. A zero (or negative)
// duration yields through the runnable ring: the process resumes at the
// same instant, after everything already scheduled for it.
func (p *Proc) Sleep(d time.Duration) {
	k := p.k
	if d <= 0 {
		k.runNext(p, nil)
	} else {
		k.At(k.now+d, p.wakeFn)
	}
	p.park()
}

// SleepUntil suspends the process until absolute virtual time t. If t is in
// the past it returns immediately.
func (p *Proc) SleepUntil(t time.Duration) {
	if t <= p.k.now {
		return
	}
	p.Sleep(t - p.k.now)
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// WaitList is a set of parked processes that can be woken individually or
// all at once. The zero value is ready to use after setting the kernel via
// NewWaitList.
type WaitList struct {
	k       *Kernel
	waiters []*Proc
}

// NewWaitList returns an empty wait list bound to k.
func NewWaitList(k *Kernel) *WaitList {
	//odylint:allow hotalloc once per construction, not per wait
	return &WaitList{k: k}
}

// Len reports the number of parked processes.
func (w *WaitList) Len() int { return len(w.waiters) }

// Wait parks the calling process on the list.
func (w *WaitList) Wait(p *Proc) {
	//odylint:allow hotalloc waiter-list growth is amortized: WakeOne shifts in place, so capacity is retained across waits
	w.waiters = append(w.waiters, p)
	p.park()
}

// WakeOne unparks the longest-waiting process, if any. The wakeup is
// queued on the runnable ring — consumed by the kernel loop in the same
// (at, seq) turn an immediate event would take — so WakeOne is safe to
// call from kernel context or from another process.
func (w *WaitList) WakeOne() bool {
	if len(w.waiters) == 0 {
		return false
	}
	// Shift down in place rather than reslicing from [1:], which would
	// shed capacity and make the next Wait reallocate.
	p := w.waiters[0]
	n := copy(w.waiters, w.waiters[1:])
	w.waiters[n] = nil
	w.waiters = w.waiters[:n]
	w.k.runNext(p, nil)
	return true
}

// WakeAll unparks every waiting process in FIFO order.
func (w *WaitList) WakeAll() int {
	n := len(w.waiters)
	for w.WakeOne() {
	}
	return n
}

// Group tracks a set of spawned processes and lets a parent wait for all of
// them to finish, in the manner of sync.WaitGroup but on virtual time.
type Group struct {
	k       *Kernel
	pending int
	waiters *WaitList
}

// NewGroup returns an empty process group bound to k.
func NewGroup(k *Kernel) *Group {
	//odylint:allow hotalloc once per construction, not per event
	return &Group{k: k, waiters: NewWaitList(k)}
}

// Go spawns fn as a member of the group.
func (g *Group) Go(name string, fn func(p *Proc)) *Proc {
	g.pending++
	//odylint:allow hotalloc once per spawned member, like Spawn's own closures
	return g.k.Spawn(name, func(p *Proc) {
		fn(p)
		g.pending--
		if g.pending == 0 {
			g.waiters.WakeAll()
		}
	})
}

// Wait parks p until every member spawned so far has finished.
func (g *Group) Wait(p *Proc) {
	for g.pending > 0 {
		g.waiters.Wait(p)
	}
}

// Pending reports the number of unfinished members.
func (g *Group) Pending() int { return g.pending }

// LiveProcs returns the names of processes that have been spawned but have
// not yet terminated. After Run drains the event queue, any names still
// listed identify parked processes that nothing will ever wake — the
// first thing to check when a simulation "ends early".
func (k *Kernel) LiveProcs() []string {
	var out []string
	for _, p := range k.procs {
		if !p.dead {
			out = append(out, fmt.Sprintf("%s (pid %d)", p.name, p.pid))
		}
	}
	return out
}

// Ticker invokes a callback periodically until stopped. Every fixed-period
// loop in the system runs on one (the energy monitor's sampling and
// evaluation, resource monitors, the supervisor's audit, the DVS governor,
// the goal watch); loops that draw a fresh interval each time, such as the
// jittered multimeter, schedule their own events.
//
// A ticker has at most one armed tick, queued in the kernel's tick lane; a
// running ticker has one except while its callback runs. The tick takes
// its sequence number when it is armed — at Start, or after the callback
// returns — exactly where After would take it, so the lane dispatches
// ticks in the order the heap would.
type Ticker struct {
	k       *Kernel
	period  time.Duration
	fn      func()
	running bool
	// seq is the sequence number of the armed tick, 0 when none is queued.
	seq uint64
	// tick carries the armed tick through the heap in the pure-heap
	// reference mode; the lane needs no closure.
	tick func()
}

// Every returns a stopped ticker that, once started, invokes fn each period.
func (k *Kernel) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		//odylint:allow panicfree a zero period would loop the clock forever; invariant guard
		panic(fmt.Sprintf("sim: ticker period must be positive, got %v", period))
	}
	t := &Ticker{k: k, period: period, fn: fn}
	if k.pureHeap {
		t.tick = func() {
			t.seq = 0
			t.fire()
		}
	}
	return t
}

// Start begins ticking. It is a no-op if already running.
func (t *Ticker) Start() {
	if t.running {
		return
	}
	t.running = true
	t.arm()
}

// Stop halts the ticker, removing its armed tick at once; Start may be
// called again.
func (t *Ticker) Stop() {
	t.running = false
	if t.seq == 0 {
		return
	}
	k := t.k
	if k.pureHeap {
		// The armed tick is the heap timer carrying its seq; a scan finds
		// it in this test-only mode.
		for i, tm := range k.events {
			if tm.seq == t.seq {
				k.recycleTimer(k.events.remove(i))
				break
			}
		}
		t.seq = 0
		return
	}
	for i := range k.lane {
		if k.lane[i].t == t {
			k.removeLane(i)
			return
		}
	}
}

// Running reports whether the ticker is active.
func (t *Ticker) Running() bool { return t.running }

// arm queues the ticker's next tick one period from now.
func (t *Ticker) arm() {
	k := t.k
	if k.pureHeap {
		k.After(t.period, t.tick)
		t.seq = k.seq
		return
	}
	k.seq++
	t.seq = k.seq
	k.pushLane(t, k.now+t.period)
}

// fire runs one tick, already taken off the lane (or the heap), and re-arms
// the ticker. The callback may have stopped the ticker, or stopped and
// restarted it — and a restart has armed a tick already, so arming another
// would leave two queued and the ticker firing at twice its rate.
func (t *Ticker) fire() {
	t.fn()
	if t.running && t.seq == 0 {
		t.arm()
	}
}
