package faults

import (
	"time"

	"odyssey/internal/netsim"
	"odyssey/internal/smartbattery"
)

// LinkOutage drops the wireless carrier entirely — the connectivity-loss
// events the fade model (netsim.LinkQuality) cannot express. Up and down
// dwell times are exponential with the given means; MaxDown, if positive,
// caps a single outage.
type LinkOutage struct {
	Net      *netsim.Network
	MeanUp   time.Duration
	MeanDown time.Duration
	MaxDown  time.Duration

	t         toggler
	outages   int
	downSince time.Duration
	downTotal time.Duration
}

// Name implements Injector.
func (o *LinkOutage) Name() string { return "link" }

// Start implements Injector.
func (o *LinkOutage) Start(pl *Plan) {
	o.t = toggler{
		meanOK:  o.MeanUp,
		meanBad: o.MeanDown,
		maxBad:  o.MaxDown,
		enter: func() {
			o.outages++
			o.downSince = pl.k.Now()
			o.Net.SetLinkUp(false)
			pl.event(o.Name(), "outage begin", float64(o.outages))
		},
		exit: func() {
			o.downTotal += pl.k.Now() - o.downSince
			o.Net.SetLinkUp(true)
			pl.event(o.Name(), "outage end", o.downTotal.Seconds())
		},
	}
	o.t.start(pl)
}

// Stop implements Injector, restoring the carrier if an outage is active.
func (o *LinkOutage) Stop() { o.t.stop() }

// Outages reports how many outages began.
func (o *LinkOutage) Outages() int { return o.outages }

// DownTime reports accumulated carrier-absent time (completed outages).
func (o *LinkOutage) DownTime() time.Duration { return o.downTotal }

// ByteLoss makes every transfer lose a fraction of its bytes to the
// channel, inflating traffic by the retransmission factor 1/(1-loss); the
// extra bytes and their CPU are charged to the net-retry principal. The
// per-transfer fraction is Fraction spread uniformly by +/- Spread.
type ByteLoss struct {
	Net      *netsim.Network
	Fraction float64
	Spread   float64

	armed bool
}

// Name implements Injector.
func (b *ByteLoss) Name() string { return "loss" }

// Start implements Injector.
func (b *ByteLoss) Start(pl *Plan) {
	if b.armed {
		return
	}
	b.armed = true
	b.Net.SetLossSampler(func() float64 {
		f := b.Fraction
		if b.Spread > 0 {
			f *= 1 + b.Spread*(2*pl.rng.Float64()-1)
		}
		if f < 0 {
			f = 0
		}
		return f
	})
	pl.event(b.Name(), "byte loss armed", b.Fraction)
}

// Stop implements Injector, restoring losslessness.
func (b *ByteLoss) Stop() {
	if !b.armed {
		return
	}
	b.armed = false
	b.Net.SetLossSampler(nil)
}

// ServerCrash takes a remote server through crash/recover windows. While
// down, calls with a deadline time out with ErrServerDown.
type ServerCrash struct {
	Server   *netsim.Server
	MeanUp   time.Duration
	MeanDown time.Duration
	MaxDown  time.Duration
	// Pool, when non-nil, marks a symbolic TargetAnyPool injector: the
	// victim Server is drawn from it with the plan's seeded RNG at Start
	// (one draw, before the toggler's), so which member crashes is
	// deterministic per seed and the spec round-trips symbolically.
	Pool []*netsim.Server

	t       toggler
	crashes int
}

// Name implements Injector.
func (c *ServerCrash) Name() string {
	if c.Server == nil {
		return "server:" + TargetAnyPool
	}
	return "server:" + c.Server.Name
}

// Start implements Injector.
func (c *ServerCrash) Start(pl *Plan) {
	if c.Server == nil && len(c.Pool) > 0 {
		c.Server = c.Pool[pl.Rand().Intn(len(c.Pool))]
		pl.event(c.Name(), "pool victim", float64(0))
	}
	c.t = toggler{
		meanOK:  c.MeanUp,
		meanBad: c.MeanDown,
		maxBad:  c.MaxDown,
		enter: func() {
			c.crashes++
			c.Server.SetDown(true)
			pl.event(c.Name(), "crash", float64(c.crashes))
		},
		exit: func() {
			c.Server.SetDown(false)
			pl.event(c.Name(), "recover", float64(c.crashes))
		},
	}
	c.t.start(pl)
}

// Stop implements Injector, recovering the server if it is down.
func (c *ServerCrash) Stop() { c.t.stop() }

// Crashes reports how many crash windows began.
func (c *ServerCrash) Crashes() int { return c.crashes }

// ServerLatency injects service-time spikes: during a spike every request
// to the server takes Factor times as long, modeling overload or a
// congested backhaul.
type ServerLatency struct {
	Server    *netsim.Server
	MeanCalm  time.Duration
	MeanSpike time.Duration
	Factor    float64
	// Pool marks a symbolic TargetAnyPool injector; see ServerCrash.Pool.
	Pool []*netsim.Server

	t      toggler
	spikes int
}

// Name implements Injector.
func (l *ServerLatency) Name() string {
	if l.Server == nil {
		return "latency:" + TargetAnyPool
	}
	return "latency:" + l.Server.Name
}

// Start implements Injector.
func (l *ServerLatency) Start(pl *Plan) {
	if l.Server == nil && len(l.Pool) > 0 {
		l.Server = l.Pool[pl.Rand().Intn(len(l.Pool))]
		pl.event(l.Name(), "pool victim", float64(0))
	}
	l.t = toggler{
		meanOK:  l.MeanCalm,
		meanBad: l.MeanSpike,
		enter: func() {
			l.spikes++
			l.Server.SetLatencyFactor(l.Factor)
			pl.event(l.Name(), "spike begin", l.Factor)
		},
		exit: func() {
			l.Server.SetLatencyFactor(1)
			pl.event(l.Name(), "spike end", float64(l.spikes))
		},
	}
	l.t.start(pl)
}

// Stop implements Injector, restoring calm service times.
func (l *ServerLatency) Stop() { l.t.stop() }

// BatteryDropout faults the SmartBattery readout path: while active,
// current reads zero (the monitor skips the sample) and residual capacity
// goes stale, so goal-directed adaptation runs on old data.
type BatteryDropout struct {
	Bat      *smartbattery.Battery
	MeanUp   time.Duration
	MeanDown time.Duration

	t        toggler
	dropouts int
}

// Name implements Injector.
func (d *BatteryDropout) Name() string { return "battery" }

// Start implements Injector.
func (d *BatteryDropout) Start(pl *Plan) {
	d.t = toggler{
		meanOK:  d.MeanUp,
		meanBad: d.MeanDown,
		enter: func() {
			d.dropouts++
			d.Bat.SetDropout(true)
			pl.event(d.Name(), "dropout begin", float64(d.dropouts))
		},
		exit: func() {
			d.Bat.SetDropout(false)
			pl.event(d.Name(), "dropout end", float64(d.dropouts))
		},
	}
	d.t.start(pl)
}

// Stop implements Injector, restoring the readout path.
func (d *BatteryDropout) Stop() { d.t.stop() }
