package faults_test

import (
	"testing"
	"time"

	"odyssey/internal/faults"
	"odyssey/internal/netsim"
	"odyssey/internal/trace"
)

// Edge cases of the injector engine the chaos generator can reach: degenerate
// (zero) dwell times, two injectors fighting over one component, and plans
// started or stopped around a drained kernel.

// TestZeroDurationOutages: a zero MeanDown (and zero MeanUp) collapses every
// exponential draw to the 1 ms clamp instead of scheduling into the past or
// dividing by zero. The link must still toggle and every window must close.
func TestZeroDurationOutages(t *testing.T) {
	m, n := newRig(11)
	pl := bindPlan(t, m.K, &stubTargets{net: n}, 5, linkSpec(0, 0, 0))
	pl.Log = trace.NewLog(m.K.Now, 0)
	pl.Start()
	m.K.At(2*time.Second, func() { m.K.Stop() })
	m.K.Run(0)
	pl.Stop()
	_, counts := pl.Counts()
	outages := counts["link/outage begin"]
	if outages == 0 {
		t.Fatal("zero-mean outage injector never fired")
	}
	if !n.LinkUp() {
		t.Fatal("link left down after Stop")
	}
	begins := len(pl.Log.Filter(trace.CatFault, ""))
	if begins < 2 {
		t.Fatalf("only %d fault events logged", begins)
	}
	// With 1 ms clamped dwell on both sides, two virtual seconds hold at
	// most ~2000 windows; far fewer means the clamp regressed upward,
	// more means it stopped clamping.
	if outages > 2000 {
		t.Fatalf("%d outages in 2 s; clamp below 1 ms broken", outages)
	}
}

// TestOverlappingInjectorsOneComponent: two independent crash injectors
// aimed at the same server nest their windows. The server must be back up
// after both stop, and the trace must stay balanced per injector — an end
// for every begin — even while the windows interleave.
func TestOverlappingInjectorsOneComponent(t *testing.T) {
	m, _ := newRig(12)
	srv := netsim.NewServer(m.K, "shared")
	crash := faults.InjectorSpec{Kind: faults.KindServerCrash, Target: "shared",
		MeanUp: faults.Dur(5 * time.Second), MeanDown: faults.Dur(4 * time.Second)}
	pl := bindPlan(t, m.K, &stubTargets{servers: map[string]*netsim.Server{"shared": srv}}, 9, crash, crash)
	pl.Log = trace.NewLog(m.K.Now, 0)
	pl.Start()
	m.K.At(5*time.Minute, func() { m.K.Stop() })
	m.K.Run(0)
	pl.Stop()
	if srv.Down() {
		t.Fatal("server left down after both injectors stopped")
	}
	// Each injector numbers its own crashes, so two first crashes (value
	// 1) mean both fired.
	firsts := 0
	for _, e := range pl.Log.Filter(trace.CatFault, "server:shared") {
		if e.Message == "crash" && e.Value == 1 {
			firsts++
		}
	}
	if firsts != 2 {
		t.Fatalf("expected both injectors to fire; got %d first crashes", firsts)
	}
	_, counts := pl.Counts()
	if crash, rec := counts["server:shared/crash"], counts["server:shared/recover"]; crash != rec {
		t.Fatalf("unbalanced crash/recover on shared server: %d begins, %d ends", crash, rec)
	}
}

// TestInjectionAfterKernelDrain: starting a plan, draining the kernel, and
// only then stopping the plan must not panic or fire callbacks against the
// drained clock; restarting the same plan on the same kernel afterwards is
// also safe (Start after Stop re-arms cleanly).
func TestInjectionAfterKernelDrain(t *testing.T) {
	m, n := newRig(13)
	pl := bindPlan(t, m.K, &stubTargets{net: n}, 17, linkSpec(10*time.Second, 2*time.Second, 0))
	outages := func() int {
		_, counts := pl.Counts()
		return counts["link/outage begin"]
	}
	pl.Start()
	m.K.At(time.Minute, func() { m.K.Stop() })
	m.K.Run(0) // drains to the Stop at t=1m
	end := m.K.Now()
	pl.Stop()
	if m.K.Now() != end {
		t.Fatalf("Stop advanced the drained clock from %v to %v", end, m.K.Now())
	}
	if !n.LinkUp() {
		t.Fatal("link left down after drain+Stop")
	}
	before := outages()

	// Re-arm on the same kernel: the injector schedules fresh events and
	// the next Run window sees new outages.
	pl.Start()
	m.K.At(end+5*time.Minute, func() { m.K.Stop() })
	m.K.Run(0)
	pl.Stop()
	if outages() <= before {
		t.Fatalf("no outages after restart (had %d, still %d)", before, outages())
	}
}
