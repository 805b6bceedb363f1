package faults

import (
	"time"

	"odyssey/internal/core"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/supervise"
)

// WindowKind is one toggling injector kind. Every Begin event a plan logs
// for a subject is closed by an End event for that subject, at Stop at the
// latest. Two injectors aimed at one component nest their windows, so a
// subject may have several open at once, but none is left open after Stop.
type WindowKind struct {
	Kind       string
	Begin, End string

	prefix      string                  // event subject, or its part before the target name
	enter, exit func(w *window) float64 // apply / heal the fault; the event's value
}

// WindowKinds lists the seven toggling kinds. The chaos trace-wellformed
// sentinel reads the Begin/End pairs from here, so a new window kind is
// audited as soon as it is listed.
//
// The network kinds: a link outage drops the wireless carrier entirely —
// the connectivity loss the fade model (netsim.LinkQuality) cannot express;
// a server crash fails every deadline-bounded call with ErrServerDown; a
// latency spike multiplies the server's service times by Factor (overload,
// a congested backhaul); a battery dropout faults the SmartBattery readout,
// so current reads zero (the monitor skips the sample) and residual capacity
// goes stale.
//
// The application kinds attack the applications themselves through the
// misbehavior surface (supervise.AppHealth) every adaptive application
// embeds. A hung application swallows upcalls: it neither applies nor
// acknowledges them, so a supervised upcall trips its watchdog. A thrashing
// one defies degradation, re-raising its fidelity to maximum every Period
// (default 2 s, at least 1 ms) until the window ends or a restart clears
// the flag. A lying one keeps reporting the level the viceroy set while
// operating Delta (default 2) levels higher, which only the supervisor's
// PowerScope audit detects. With no supervisor installed the misbehavior
// simply wrecks the run — the baseline the supervision plane is measured
// against.
var WindowKinds = []WindowKind{
	{Kind: KindLink, Begin: "outage begin", End: "outage end", prefix: "link",
		enter: func(w *window) float64 {
			w.downSince = w.pl.k.Now()
			w.net.SetLinkUp(false)
			return float64(w.n)
		},
		exit: func(w *window) float64 {
			w.downTotal += w.pl.k.Now() - w.downSince
			w.net.SetLinkUp(true)
			return w.downTotal.Seconds()
		}},
	{Kind: KindServerCrash, Begin: "crash", End: "recover", prefix: "server:",
		enter: func(w *window) float64 { w.srv.SetDown(true); return float64(w.n) },
		exit:  func(w *window) float64 { w.srv.SetDown(false); return float64(w.n) }},
	{Kind: KindServerLatency, Begin: "spike begin", End: "spike end", prefix: "latency:",
		enter: func(w *window) float64 { w.srv.SetLatencyFactor(w.spec.Factor); return w.spec.Factor },
		exit:  func(w *window) float64 { w.srv.SetLatencyFactor(1); return float64(w.n) }},
	{Kind: KindBatteryDropout, Begin: "dropout begin", End: "dropout end", prefix: "battery",
		enter: func(w *window) float64 { w.bat.SetDropout(true); return float64(w.n) },
		exit:  func(w *window) float64 { w.bat.SetDropout(false); return float64(w.n) }},
	{Kind: KindAppHang, Begin: "hang begin", End: "hang end", prefix: "hang:",
		enter: func(w *window) float64 { w.health.SetHung(true); return float64(w.n) },
		exit:  func(w *window) float64 { w.health.SetHung(false); return float64(w.n) }},
	{Kind: KindAppThrash, Begin: "thrash begin", End: "thrash end", prefix: "thrash:",
		enter: func(w *window) float64 { w.health.SetThrashing(true); w.pulse(); return float64(w.n) },
		exit:  func(w *window) float64 { w.health.SetThrashing(false); return float64(w.raises) }},
	{Kind: KindAppLie, Begin: "lie begin", End: "lie end", prefix: "lie:",
		enter: func(w *window) float64 {
			delta := w.spec.Delta
			if delta == 0 {
				delta = 2
			}
			w.health.SetLieDelta(delta)
			return float64(delta)
		},
		exit: func(w *window) float64 { w.health.SetLieDelta(0); return float64(w.n) }},
}

// windowKind returns the WindowKinds entry for kind, or nil.
func windowKind(kind string) *WindowKind {
	for i := range WindowKinds {
		if WindowKinds[i].Kind == kind {
			return &WindowKinds[i]
		}
	}
	return nil
}

// window is a bound toggling injector. Healthy and faulted dwell times are
// exponential draws from the plan's stream with the spec's MeanUp and
// MeanDown; MaxDown, if positive, caps a faulted one. Entering the faulted
// state applies the fault and logs the kind's Begin; leaving it, on
// schedule or at Stop, heals the fault and logs End.
type window struct {
	*WindowKind
	spec    InjectorSpec
	subject string

	// The target; the kind's enter/exit use the one it needs.
	net    *netsim.Network
	srv    *netsim.Server
	pool   []*netsim.Server // pool:any: srv is drawn from it at the first start
	bat    *smartbattery.Battery
	app    core.Adaptive
	health *supervise.AppHealth

	pl      *Plan
	ev      sim.Event
	faulted bool
	n       int // windows begun

	downSince, downTotal time.Duration // link outage
	pulseEv              sim.Event     // app thrash: the re-raise loop
	raises               int
}

func (w *window) start(pl *Plan) {
	w.pl = pl
	if w.srv == nil && w.pool != nil {
		// One draw, before the toggle's, so which member falls is
		// deterministic per seed.
		w.srv = w.pool[pl.rng.Intn(len(w.pool))]
		w.subject += w.srv.Name
		pl.event(w.subject, "pool victim", 0)
	}
	w.faulted = false
	w.schedule()
}

func (w *window) schedule() {
	mean, max := w.spec.MeanUp.D(), time.Duration(0)
	if w.faulted {
		mean, max = w.spec.MeanDown.D(), w.spec.MaxDown.D()
	}
	w.ev = w.pl.k.After(w.pl.hold(mean, max), func() {
		w.faulted = !w.faulted
		if w.faulted {
			w.n++
			w.pl.event(w.subject, w.Begin, w.enter(w))
		} else {
			w.pl.event(w.subject, w.End, w.exit(w))
		}
		w.schedule()
	})
}

func (w *window) stop() {
	w.pulseEv.Cancel()
	w.pulseEv = sim.Event{}
	w.ev.Cancel()
	w.ev = sim.Event{}
	if w.faulted {
		w.faulted = false
		w.pl.event(w.subject, w.End, w.exit(w))
	}
}

// pulse is the thrashing application's side of the fight: while the window
// lasts (and the process lives), re-raise to full fidelity every Period.
func (w *window) pulse() {
	period := w.spec.Period.D()
	switch {
	case period <= 0:
		period = 2 * time.Second
	case period < time.Millisecond:
		period = time.Millisecond // the floor hold puts under every dwell
	}
	w.pulseEv = w.pl.k.After(period, func() {
		if w.pulseEv == (sim.Event{}) || !w.health.Thrashing() {
			return
		}
		if w.health.Alive() {
			if max := len(w.app.Levels()) - 1; w.app.Level() < max {
				w.raises++
				w.app.SetLevel(max)
				w.pl.event(w.subject, "fidelity re-raised", float64(max))
			}
		}
		w.pulse()
	})
}

// byteLoss makes every transfer lose a fraction of its bytes to the
// channel, inflating traffic by the retransmission factor 1/(1-loss); the
// extra bytes and their CPU are charged to the net-retry principal. Each
// transfer draws its fraction from the plan's stream: Fraction spread
// uniformly by +/- Spread.
type byteLoss struct {
	spec InjectorSpec
	net  *netsim.Network
}

func (b *byteLoss) start(pl *Plan) {
	b.net.SetLossSampler(func() float64 {
		f := b.spec.Fraction
		if b.spec.Spread > 0 {
			f *= 1 + b.spec.Spread*(2*pl.rng.Float64()-1)
		}
		if f < 0 {
			f = 0
		}
		return f
	})
	pl.event("loss", "byte loss armed", b.spec.Fraction)
}

func (b *byteLoss) stop() { b.net.SetLossSampler(nil) }

// appCrash kills the application process at exponentially distributed
// intervals with mean MeanUp. It never revives it: that is the supervisor's
// job (restart) or nobody's (the unsupervised baseline). Each kill only
// lands on a live process, so a quarantined application stays dead; Stop's
// cleanup revives it.
type appCrash struct {
	spec    InjectorSpec
	subject string
	health  *supervise.AppHealth
	ev      sim.Event
	kills   int
}

func (c *appCrash) start(pl *Plan) {
	c.ev = pl.k.After(pl.hold(c.spec.MeanUp.D(), 0), func() {
		if c.health.Alive() {
			c.kills++
			c.health.SetCrashed(true)
			pl.event(c.subject, "process killed", float64(c.kills))
		}
		c.start(pl)
	})
}

func (c *appCrash) stop() {
	c.ev.Cancel()
	c.ev = sim.Event{}
	c.health.SetCrashed(false)
}
