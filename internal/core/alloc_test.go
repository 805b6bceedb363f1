//go:build !race

package core

import (
	"testing"
	"time"

	"odyssey/internal/power"
	"odyssey/internal/sim"
)

// pinnedApp is an adaptive application that acknowledges upcalls without
// acting on them or recording them: the monitor directs one adaptation
// every evaluation, and the only allocations a tick can make are its own.
type pinnedApp struct {
	name  string
	level int
}

func (a *pinnedApp) Name() string     { return a.name }
func (a *pinnedApp) Levels() []string { return []string{"lo", "mid", "hi"} }
func (a *pinnedApp) Level() int       { return a.level }
func (a *pinnedApp) SetLevel(int)     {}

// TestEvaluateTickAllocatesNothing: with only an averager-style trace hook
// attached (one that reads each point and keeps none), a monitor period -
// five samples, one evaluation, its directed upcall and both timer
// reschedules - allocates nothing, whether it degrades or upgrades.
func TestEvaluateTickAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		initial float64
		start   int
	}{
		{"degrading", 1_000, 2},      // 10 W for a 1 h goal: always short
		{"upgrading", 10_000_000, 0}, // ample supply: always headroom
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			acct := power.NewAccountant(k)
			acct.Set(acct.Register("load"), 10)
			v := NewViceroy(k)
			for i, name := range []string{"speech", "video", "map"} {
				v.RegisterApp(&pinnedApp{name: name, level: tc.start}, i+1)
			}
			cfg := DefaultEnergyConfig()
			cfg.UpgradeInterval = 0
			em := NewEnergyMonitor(v, acct, power.NewSupply(acct, tc.initial), cfg)
			em.SetGoal(time.Hour)
			var supply float64
			em.Trace = func(tp TracePoint) { supply += tp.Supply }
			em.Start()
			// Warm up first, so the kernel's own amortized growth (event heap,
			// timer pool, runnable ring) is behind us.
			k.Run(2 * time.Minute)
			directed := em.Degrades() + em.Upgrades()
			allocs := testing.AllocsPerRun(100, func() { k.Run(k.Now() + evalPeriod) })
			if allocs != 0 {
				t.Fatalf("%.0f allocations per monitor period, want 0", allocs)
			}
			if em.Degrades()+em.Upgrades() < directed+100 {
				t.Fatalf("monitor directed %d adaptations over 101 periods; the test must exercise an upcall every tick",
					em.Degrades()+em.Upgrades()-directed)
			}
		})
	}
}
