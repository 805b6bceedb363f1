package hw

import (
	"time"

	"odyssey/internal/sim"
)

// Dynamic voltage scaling: the complementary CPU-centric power-management
// technique of the paper's related work (Weiser et al.'s and Lorch's
// scheduling for reduced CPU energy). Work takes proportionally longer at a
// lower clock, but busy power falls roughly with the cube of the speed
// (voltage scales with frequency), so race-to-idle loses to slow-and-steady
// whenever slack exists. The extension experiment in internal/experiment
// combines DVS with fidelity adaptation.

// SetSpeed sets the processor's clock as a fraction of nominal (0 < s <= 1).
// Pending work is preserved; its completion is rescheduled at the new rate.
// Busy power scales as speed cubed (voltage tracks frequency).
func (c *CPU) SetSpeed(s float64) {
	if s <= 0 || s > 1 {
		//odylint:allow panicfree out-of-range speed corrupts the energy model; invariant guard
		panic("hw: CPU speed must be in (0, 1]")
	}
	c.speed = s
	c.res.SetCapacity(s)
	c.publish()
}

// Speed returns the current clock fraction.
func (c *CPU) Speed() float64 {
	//odylint:allow floateq zero is the explicit unset sentinel, assigned never computed
	if c.speed == 0 {
		return 1
	}
	return c.speed
}

// busyPower returns the current busy draw under the voltage/frequency model.
func (c *CPU) busyPower() float64 {
	s := c.Speed()
	return c.prof.CPUBusy * s * s * s
}

// The governor's Weiser-style settings, which no run varies.
const (
	// dvsInterval is the adjustment period.
	dvsInterval = 50 * time.Millisecond
	// dvsTargetUtilization is the busy fraction the governor aims for at
	// the chosen speed.
	dvsTargetUtilization = 0.85
)

// dvsSpeeds is the discrete speed ladder, ascending: hardware exposes a
// handful of P-states, not a continuum. Its lowest rung bounds how far the
// clock drops.
var dvsSpeeds = [...]float64{0.4, 0.6, 0.8, 1.0}

// DVSGovernor is an interval-based frequency governor in the style of
// Weiser et al.: it measures CPU utilization over each interval and picks
// the lowest speed on the ladder that would have kept utilization below the
// target. It never runs below the utilization the workload demands for
// long — underprediction is corrected one interval later.
type DVSGovernor struct {
	cpu      *CPU
	ticker   *sim.Ticker // adjust every dvsInterval
	lastBusy float64
	changes  int
}

// NewDVSGovernor returns a stopped governor: 50 ms intervals, 85% target
// utilization, and a four-step speed ladder.
func NewDVSGovernor(k *sim.Kernel, cpu *CPU) *DVSGovernor {
	g := &DVSGovernor{cpu: cpu}
	g.ticker = k.Every(dvsInterval, g.adjust)
	return g
}

// Changes reports the number of speed transitions.
func (g *DVSGovernor) Changes() int { return g.changes }

// Start begins interval-based speed adjustment.
func (g *DVSGovernor) Start() {
	if g.ticker.Running() {
		return
	}
	g.lastBusy = g.cpu.BusyTime()
	g.ticker.Start()
}

// Stop halts the governor and restores full speed.
func (g *DVSGovernor) Stop() {
	g.ticker.Stop()
	//odylint:allow floateq speeds come from the discrete ladder, assigned never computed
	if g.cpu.Speed() != 1.0 {
		g.cpu.SetSpeed(1.0)
		g.changes++
	}
}

// adjust picks the next interval's speed from the last interval's
// utilization: the cycles consumed would fit in target utilization at speed
// util*currentSpeed/target, rounded up the ladder.
func (g *DVSGovernor) adjust() {
	busy := g.cpu.BusyTime()
	util := (busy - g.lastBusy) / dvsInterval.Seconds()
	g.lastBusy = busy

	demandedCycles := util * g.cpu.Speed() // fraction of nominal capacity used
	want := demandedCycles / dvsTargetUtilization
	// Round up the discrete ladder.
	chosen := dvsSpeeds[len(dvsSpeeds)-1]
	for _, s := range dvsSpeeds {
		if s >= want-1e-9 {
			chosen = s
			break
		}
	}
	//odylint:allow floateq speeds come from the discrete ladder, assigned never computed
	if chosen != g.cpu.Speed() {
		g.cpu.SetSpeed(chosen)
		g.changes++
	}
}
