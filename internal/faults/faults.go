// Package faults is the deterministic fault-injection plane for the
// simulated testbed. The paper's experiments ran on a reliable bench
// network; real mobile networks lose carriers, drop bytes, and talk to
// servers that crash. Injectors here drive those failures from the virtual
// clock with their own seeded RNG stream, so a faulted run is exactly as
// reproducible as a clean one: same seed, same outages, same byte losses,
// same trace.
//
// A Plan is a PlanSpec bound to one trial's rig: each InjectorSpec resolves
// its target and drives it with the spec's own parameters. Network
// injectors act on the one transfer path in internal/netsim: calls that
// carry a deadline time out, retry, and return fallback errors, while calls
// without one block through the fault. With no plan attached no deadline
// fires, so fault-free runs are byte-for-byte unchanged.
package faults

import (
	"math/rand"
	"sort"
	"time"

	"odyssey/internal/sim"
	"odyssey/internal/trace"
)

// Plan runs its injectors under one seeded RNG stream, separate from the
// kernel's, so adding or removing faults never perturbs workload draws.
// PlanSpec.Plan builds it.
type Plan struct {
	Name string
	// Log, if set, receives every fault event under trace.CatFault.
	Log *trace.Log

	k         *sim.Kernel
	rng       *rand.Rand
	injectors []injector
	counts    map[string]int
	running   bool
}

// injector is one InjectorSpec bound to its target. start arms it against
// the plan's clock and RNG; stop disarms it and restores healthy state. The
// plan alternates the two, so neither is called twice in a row, and an
// injector's counters carry across a stop and the next start.
type injector interface {
	start(pl *Plan)
	stop()
}

// Start arms every injector, in spec order.
func (pl *Plan) Start() {
	if pl.running {
		return
	}
	pl.running = true
	for _, in := range pl.injectors {
		in.start(pl)
	}
}

// Stop disarms every injector, restoring healthy state.
func (pl *Plan) Stop() {
	if !pl.running {
		return
	}
	pl.running = false
	for _, in := range pl.injectors {
		in.stop()
	}
}

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
