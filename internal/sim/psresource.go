package sim

import (
	"fmt"
	"time"
)

// epsilon returns the completion tolerance for r: one nanosecond of
// full-capacity service. Work within that of zero is considered complete,
// absorbing float64/time.Duration conversion residue.
func (r *PSResource) epsilon() float64 { return r.capacity * 1e-9 }

// PSJob is one unit of work being served by a PSResource. Jobs are pooled
// per resource: a job is valid from submission until it completes or is
// cancelled, after which the resource recycles it for a later submission.
// Blocking submitters (Use, UseDeadline) observe their job's outcome
// before it is recycled; asynchronous work (UseAsync) signals completion
// through its callback and exposes no handle.
type PSJob struct {
	// Principal names the software component the work is attributed to
	// (e.g. "xanim", "X", "wavelan"). Power accounting and PowerScope
	// sampling use it.
	Principal string

	remaining  float64
	owner      *Proc  // parked process to wake on completion; nil for async jobs
	onDone     func() // optional completion callback (async jobs)
	cancelled  bool
	cancelSelf func() // hoisted deadline-watchdog body, allocated once per pooled job
}

// PSResource is an egalitarian processor-sharing server: capacity units of
// work per second, divided equally among all active jobs. It models both the
// CPU (units = cpu-seconds) and the wireless link (units = bytes).
type PSResource struct {
	k        *Kernel
	name     string
	capacity float64

	jobs       []*PSJob
	free       []*PSJob // job pool
	finished   []*PSJob // scratch for complete(); retained across events
	lastUpdate time.Duration
	completion Event
	completeFn func() // hoisted method value of complete

	// OnChange, if set, is invoked whenever the active job set changes
	// (job added or removed), after the resource state is consistent.
	OnChange func()

	busyTime time.Duration // total time with >= 1 active job
	served   float64       // total units completed
}

// NewPSResource returns a processor-sharing resource with the given capacity
// in units per second of virtual time.
func NewPSResource(k *Kernel, name string, capacity float64) *PSResource {
	if capacity <= 0 {
		//odylint:allow panicfree constructor precondition; invariant guard
		panic(fmt.Sprintf("sim: PSResource %q capacity must be positive, got %g", name, capacity))
	}
	r := &PSResource{k: k, name: name, capacity: capacity, lastUpdate: k.Now()}
	r.completeFn = r.complete
	return r
}

// newJob returns a pooled job initialized for service.
func (r *PSResource) newJob(principal string, demand float64, owner *Proc, onDone func()) *PSJob {
	var j *PSJob
	if n := len(r.free); n > 0 {
		j = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	} else {
		//odylint:allow hotalloc pool refill is amortized: a recycled job serves every later submission through it
		j = &PSJob{}
		//odylint:allow hotalloc pool-miss only: the cancel closure is allocated once per pooled job and reused forever after
		j.cancelSelf = func() { r.cancelJob(j) }
	}
	j.Principal = principal
	j.remaining = demand
	j.owner = owner
	j.onDone = onDone
	j.cancelled = false
	return j
}

// recycleJob returns a retired job to the pool. The caller must be the
// last holder of the job: blocking submitters recycle after reading their
// outcome, complete() recycles async jobs after their callback runs.
func (r *PSResource) recycleJob(j *PSJob) {
	j.owner = nil
	j.onDone = nil
	//odylint:allow hotalloc pool growth is amortized: capacity is retained across submissions
	r.free = append(r.free, j)
}

// Name returns the resource name.
func (r *PSResource) Name() string { return r.name }

// Capacity returns the configured capacity in units per second.
func (r *PSResource) Capacity() float64 { return r.capacity }

// SetCapacity changes the service rate, preserving work already done.
func (r *PSResource) SetCapacity(c float64) {
	if c <= 0 {
		//odylint:allow panicfree,hotalloc zero capacity stalls every queued job; invariant guard, formatted once as the run aborts
		panic(fmt.Sprintf("sim: PSResource %q capacity must be positive, got %g", r.name, c))
	}
	r.advance()
	r.capacity = c
	r.reschedule()
}

// Active reports the number of jobs currently in service.
func (r *PSResource) Active() int { return len(r.jobs) }

// BusyTime reports accumulated time during which at least one job was active.
func (r *PSResource) BusyTime() time.Duration {
	d := r.busyTime
	if len(r.jobs) > 0 {
		d += r.k.Now() - r.lastUpdate
	}
	return d
}

// Served reports the total units of work completed so far.
func (r *PSResource) Served() float64 { return r.served }

// Shares appends the current (principal, fraction-of-capacity) pairs to dst
// and returns it. Fractions sum to 1 when any job is active.
func (r *PSResource) Shares(dst []Share) []Share {
	n := len(r.jobs)
	if n == 0 {
		return dst
	}
	f := 1.0 / float64(n)
	for _, j := range r.jobs {
		//odylint:allow hotalloc appends a value literal into the caller's retained buffer, which grows only past its longest snapshot
		dst = append(dst, Share{Principal: j.Principal, Fraction: f})
	}
	return dst
}

// Share is a principal's fraction of a resource at an instant.
type Share struct {
	Principal string
	Fraction  float64
}

// advance applies service between lastUpdate and now to every active job.
func (r *PSResource) advance() {
	now := r.k.Now()
	elapsed := now - r.lastUpdate
	if elapsed > 0 && len(r.jobs) > 0 {
		rate := r.capacity / float64(len(r.jobs))
		done := elapsed.Seconds() * rate
		for _, j := range r.jobs {
			j.remaining -= done
			r.served += done
		}
		r.busyTime += elapsed
	}
	r.lastUpdate = now
}

// reschedule cancels any pending completion event and schedules one for the
// earliest-finishing job, if any.
func (r *PSResource) reschedule() {
	r.completion.Cancel()
	//odylint:allow hotalloc zeroing a value field; no heap allocation
	r.completion = Event{}
	if len(r.jobs) == 0 {
		return
	}
	min := r.jobs[0].remaining
	for _, j := range r.jobs[1:] {
		if j.remaining < min {
			min = j.remaining
		}
	}
	if min < 0 {
		min = 0
	}
	dt := min * float64(len(r.jobs)) / r.capacity
	r.completion = r.k.After(time.Duration(dt*float64(time.Second))+1, r.completeFn)
}

// complete retires every job whose work is done, wakes owners, and invokes
// async callbacks.
func (r *PSResource) complete() {
	r.completion = Event{}
	r.advance()
	finished := r.finished[:0]
	eps := r.epsilon()
	keep := r.jobs[:0]
	for _, j := range r.jobs {
		if j.remaining <= eps {
			//odylint:allow hotalloc scratch growth is amortized: the finished buffer is retained across completions
			finished = append(finished, j)
		} else {
			keep = append(keep, j)
		}
	}
	for i := len(keep); i < len(r.jobs); i++ {
		r.jobs[i] = nil
	}
	r.jobs = keep
	r.reschedule()
	if len(finished) > 0 && r.OnChange != nil {
		r.OnChange()
	}
	for _, j := range finished {
		if j.onDone != nil {
			j.onDone()
		}
		if j.owner != nil {
			// The owner (parked in Use/UseDeadline) reads the job's
			// outcome and recycles it before submitting new work.
			r.k.transfer(j.owner)
		} else {
			r.recycleJob(j)
		}
	}
	for i := range finished {
		finished[i] = nil
	}
	r.finished = finished[:0]
}

// add inserts a job and updates scheduling state.
func (r *PSResource) add(j *PSJob) {
	r.advance()
	//odylint:allow hotalloc job-list growth is amortized: capacity is retained across submissions
	r.jobs = append(r.jobs, j)
	r.reschedule()
	if r.OnChange != nil {
		r.OnChange()
	}
}

// Use blocks the calling process until demand units of work have been served
// on behalf of principal. Zero or negative demand returns immediately.
func (r *PSResource) Use(p *Proc, principal string, demand float64) {
	if demand <= 0 {
		return
	}
	j := r.newJob(principal, demand, p, nil)
	r.add(j)
	p.park()
	r.recycleJob(j)
}

// UseDeadline is Use with an absolute virtual-time deadline: if the work
// has not completed by deadline the job is cancelled and the caller
// resumes immediately with cancelled true and the units left unserved. A
// deadline of zero (or in the past at submission) disables the watchdog.
// Zero or negative demand returns immediately with (false, 0).
func (r *PSResource) UseDeadline(p *Proc, principal string, demand float64, deadline time.Duration) (cancelled bool, remaining float64) {
	if demand <= 0 {
		return false, 0
	}
	j := r.newJob(principal, demand, p, nil)
	r.add(j)
	var watchdog Event
	if deadline > r.k.Now() {
		watchdog = r.k.At(deadline, j.cancelSelf)
	}
	p.park()
	// Disarm before recycling: the watchdog must never fire against a
	// recycled job (the pool's ABA hazard). Cancel is a generation-checked
	// no-op when the watchdog itself woke us.
	watchdog.Cancel()
	cancelled, remaining = j.cancelled, j.remaining
	r.recycleJob(j)
	return cancelled, remaining
}

// cancelJob removes a job from service before completion, crediting the
// work already done and waking the owning process (which reads the
// cancelled flag). It must be called from kernel context (an event callback)
// and reports whether the job was still in service.
func (r *PSResource) cancelJob(j *PSJob) bool {
	if j == nil || j.cancelled {
		return false
	}
	idx := -1
	for i, q := range r.jobs {
		if q == j {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false // already completed (or never queued)
	}
	r.advance()
	copy(r.jobs[idx:], r.jobs[idx+1:])
	r.jobs[len(r.jobs)-1] = nil
	r.jobs = r.jobs[:len(r.jobs)-1]
	j.cancelled = true
	r.reschedule()
	if r.OnChange != nil {
		r.OnChange()
	}
	// onDone is a completion callback; a cancelled job never completes.
	if j.owner != nil {
		r.k.transfer(j.owner)
	} else {
		r.recycleJob(j)
	}
	return true
}

// UseAsync enqueues demand units of work for principal without blocking any
// process. onDone, if non-nil, runs in kernel context when the work
// completes. The job is pooled and recycled as soon as it finishes, so no
// handle is returned; completion is observable only through onDone.
func (r *PSResource) UseAsync(principal string, demand float64, onDone func()) {
	if demand <= 0 {
		if onDone != nil {
			r.k.runNext(nil, onDone)
		}
		return
	}
	r.add(r.newJob(principal, demand, nil, onDone))
}

// Queue is an unbounded FIFO channel on virtual time: Put never blocks, Get
// parks the caller until an item is available.
type Queue[T any] struct {
	k       *Kernel
	items   []T
	waiters *WaitList
}

// NewQueue returns an empty queue bound to k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	//odylint:allow hotalloc once per construction, not per event
	return &Queue[T]{k: k, waiters: NewWaitList(k)}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends v and wakes one waiter if any.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	q.waiters.WakeOne()
}

// Get removes and returns the head item, parking p until one is available.
func (q *Queue[T]) Get(p *Proc) T {
	for len(q.items) == 0 {
		q.waiters.Wait(p)
	}
	// Shift down in place rather than reslicing from [1:], which would
	// shed capacity and make the next Put reallocate.
	v := q.items[0]
	n := copy(q.items, q.items[1:])
	var zero T
	q.items[n] = zero
	q.items = q.items[:n]
	return v
}
