// Package faults is the deterministic fault-injection plane for the
// simulated testbed. The paper's experiments ran on a reliable bench
// network; real mobile networks lose carriers, drop bytes, and talk to
// servers that crash. Injectors here drive those failures from the virtual
// clock with their own seeded RNG stream, so a faulted run is exactly as
// reproducible as a clean one: same seed, same outages, same byte losses,
// same trace.
//
// Injectors compose into a Plan. Network injectors act on the one transfer
// path in internal/netsim: calls that carry a deadline time out, retry, and
// return fallback errors, while calls without one block through the fault.
// With no plan attached no deadline fires, so fault-free runs are
// byte-for-byte unchanged.
package faults

import (
	"math/rand"
	"sort"
	"time"

	"odyssey/internal/sim"
	"odyssey/internal/trace"
)

// Injector is one fault process. Start arms it against the plan's clock and
// RNG; Stop disarms it and restores healthy state. Both are idempotent.
type Injector interface {
	Name() string
	Start(pl *Plan)
	Stop()
}

// Plan composes injectors under one seeded RNG stream, separate from the
// kernel's, so adding or removing faults never perturbs workload draws.
type Plan struct {
	Name string
	// Log, if set, receives every fault event under trace.CatFault.
	Log *trace.Log

	k         *sim.Kernel
	rng       *rand.Rand
	injectors []Injector
	counts    map[string]int
	running   bool
}

// NewPlan returns an empty plan driving its injectors from k, with fault
// timing drawn from its own stream seeded by seed.
func NewPlan(k *sim.Kernel, name string, seed int64) *Plan {
	return &Plan{
		Name:   name,
		k:      k,
		rng:    rand.New(rand.NewSource(seed)),
		counts: make(map[string]int),
	}
}

// Add appends injectors to the plan (before or after Start; added ones
// start immediately if the plan is running). It returns the plan.
func (pl *Plan) Add(injs ...Injector) *Plan {
	pl.injectors = append(pl.injectors, injs...)
	if pl.running {
		for _, in := range injs {
			in.Start(pl)
		}
	}
	return pl
}

// Start arms every injector.
func (pl *Plan) Start() {
	if pl.running {
		return
	}
	pl.running = true
	for _, in := range pl.injectors {
		in.Start(pl)
	}
}

// Stop disarms every injector, restoring healthy state.
func (pl *Plan) Stop() {
	if !pl.running {
		return
	}
	pl.running = false
	for _, in := range pl.injectors {
		in.Stop()
	}
}

// Rand exposes the plan's dedicated RNG stream to injectors.
func (pl *Plan) Rand() *rand.Rand { return pl.rng }

// event counts one fault occurrence and records it in the trace log.
func (pl *Plan) event(subject, message string, value float64) {
	pl.counts[subject+"/"+message]++
	if pl.Log != nil {
		pl.Log.Add(trace.CatFault, subject, message, value)
	}
}

// Counts returns occurrences per "injector/event" key, with keys sorted.
func (pl *Plan) Counts() (keys []string, counts map[string]int) {
	counts = make(map[string]int, len(pl.counts))
	for k, v := range pl.counts {
		keys = append(keys, k)
		counts[k] = v
	}
	sort.Strings(keys)
	return keys, counts
}

// TotalEvents reports the total number of fault events injected.
func (pl *Plan) TotalEvents() int {
	n := 0
	for _, v := range pl.counts {
		n += v
	}
	return n
}

// hold draws an exponential holding time with the given mean from the
// plan's RNG, clamped below at 1 ms (the kernel cannot schedule into the
// past) and above at max when max > 0 (bounding e.g. crash windows).
func (pl *Plan) hold(mean, max time.Duration) time.Duration {
	d := time.Duration(pl.rng.ExpFloat64() * float64(mean))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// toggler is the shared two-state (healthy/faulted) engine behind the
// injectors: exponential holding times in each state, enter/exit callbacks
// run in kernel context.
type toggler struct {
	pl      *Plan
	ev      sim.Event
	meanOK  time.Duration
	meanBad time.Duration
	maxBad  time.Duration
	faulted bool
	enter   func() // healthy -> faulted
	exit    func() // faulted -> healthy
	stopped bool
}

func (t *toggler) start(pl *Plan) {
	t.pl = pl
	t.stopped = false
	t.faulted = false
	t.schedule()
}

func (t *toggler) schedule() {
	mean, max := t.meanOK, time.Duration(0)
	if t.faulted {
		mean, max = t.meanBad, t.maxBad
	}
	t.ev = t.pl.k.After(t.pl.hold(mean, max), func() {
		if t.stopped {
			return
		}
		t.faulted = !t.faulted
		if t.faulted {
			t.enter()
		} else {
			t.exit()
		}
		t.schedule()
	})
}

func (t *toggler) stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.ev.Cancel()
	t.ev = sim.Event{}
	if t.faulted {
		t.faulted = false
		t.exit()
	}
}
