package hw

import (
	"odyssey/internal/power"
	"odyssey/internal/sim"
)

// CPU models the processor as an egalitarian processor-sharing resource with
// two power levels: halted (the kernel idle hlt loop, covered by the
// profile's Other figure) and busy (+CPUBusy watts while anything runs).
// Ownership shares feed the accountant so that system power is attributed to
// the software principal executing at each instant, as PowerScope observes.
type CPU struct {
	acct *power.Accountant
	comp power.ComponentID
	prof Profile
	res  *sim.PSResource

	// speed is the DVS clock fraction; 0 means unset (treated as 1).
	speed float64

	shareBuf []sim.Share
}

// NewCPU returns a halted CPU with a processor-sharing capacity of one
// cpu-second per second.
func NewCPU(k *sim.Kernel, acct *power.Accountant, prof Profile) *CPU {
	c := &CPU{acct: acct, comp: acct.Register(CompCPU), prof: prof}
	c.res = sim.NewPSResource(k, "cpu", 1.0)
	c.res.OnChange = c.publish
	c.publish()
	return c
}

func (c *CPU) publish() {
	if c.res.Active() > 0 {
		c.acct.Set(c.comp, c.busyPower())
	} else {
		c.acct.Set(c.comp, 0)
	}
	c.shareBuf = c.res.Shares(c.shareBuf[:0])
	c.acct.SetShares(c.shareBuf)
}

// Run executes demand cpu-seconds on behalf of principal, blocking p until
// the work completes (possibly slowed by competing jobs).
func (c *CPU) Run(p *sim.Proc, principal string, demand float64) {
	c.res.Use(p, principal, demand)
}

// RunAsync executes demand cpu-seconds for principal without blocking any
// process — used for interrupt handling and housekeeping load.
func (c *CPU) RunAsync(principal string, demand float64, onDone func()) {
	c.res.UseAsync(principal, demand, onDone)
}

// Busy reports whether anything is executing.
func (c *CPU) Busy() bool { return c.res.Active() > 0 }

// BusyTime reports the accumulated non-halted time.
func (c *CPU) BusyTime() float64 { return c.res.BusyTime().Seconds() }
