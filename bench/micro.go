package main

import (
	"runtime"
	"time"

	"odyssey/internal/sim"
)

// The kernel micro-benchmarks of the root bench_test.go, re-implemented so
// the traced run reports them next to the layers that call the kernel.
// Each returns host nanoseconds per operation.

func noop() {}

// microEvent times dispatch of n pre-scheduled no-op events.
func microEvent(n int) float64 {
	k := sim.NewKernel(1)
	for i := 0; i < n; i++ {
		k.After(time.Duration(i%1000)*time.Microsecond, noop)
	}
	t0 := time.Now()
	k.Run(0)
	return float64(time.Since(t0)) / float64(n)
}

// microSwitch times n process sleep/wake handoffs and counts heap
// allocations per handoff.
func microSwitch(n int) (nsPerOp, allocsPerOp float64) {
	k := sim.NewKernel(1)
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	k.Run(0)
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// microPS times processor-sharing bookkeeping over a churning set of 64
// concurrent jobs, n completions in all.
func microPS(n int) float64 {
	k := sim.NewKernel(1)
	r := sim.NewPSResource(k, "cpu", 1000.0)
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
	t0 := time.Now()
	k.Run(0)
	return float64(time.Since(t0)) / float64(n)
}
