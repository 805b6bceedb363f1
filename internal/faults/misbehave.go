package faults

import (
	"time"

	"odyssey/internal/core"
	"odyssey/internal/sim"
	"odyssey/internal/supervise"
)

// Application-misbehavior injectors. Where the network injectors attack the
// transport under the applications, these attack the applications
// themselves, through the misbehavior surface (supervise.AppHealth) every
// adaptive application embeds: processes die, upcalls stop acknowledging,
// degradation directives are defied, and reported levels diverge from
// actual consumption. With no supervisor installed the misbehavior simply
// wrecks the run — the baseline the supervision plane is measured against.

// AppCrash kills the application process at exponentially distributed
// intervals. It never revives it: that is the supervisor's job (restart) or
// nobody's (the unsupervised baseline). Each kill only lands on a live
// process, so a quarantined application stays dead.
type AppCrash struct {
	App    core.Adaptive
	Health *supervise.AppHealth
	// MeanUp is the mean process lifetime between kills.
	MeanUp time.Duration

	ev    sim.Event
	kills int
}

// Name implements Injector.
func (c *AppCrash) Name() string { return "crash:" + c.App.Name() }

// Start implements Injector.
func (c *AppCrash) Start(pl *Plan) {
	c.schedule(pl)
}

func (c *AppCrash) schedule(pl *Plan) {
	c.ev = pl.k.After(pl.hold(c.MeanUp, 0), func() {
		if c.ev == (sim.Event{}) {
			return
		}
		if c.Health.Alive() {
			c.kills++
			c.Health.SetCrashed(true)
			pl.event(c.Name(), "process killed", float64(c.kills))
		}
		c.schedule(pl)
	})
}

// Stop implements Injector; the end-of-run cleanup revives the process.
func (c *AppCrash) Stop() {
	c.ev.Cancel()
	c.ev = sim.Event{}
	c.Health.SetCrashed(false)
}

// Kills reports how many times the process was killed.
func (c *AppCrash) Kills() int { return c.kills }

// AppHang makes the application swallow upcalls during exponentially
// distributed windows: delivery neither applies the directive nor
// acknowledges, so a supervised upcall trips its watchdog.
type AppHang struct {
	App      core.Adaptive
	Health   *supervise.AppHealth
	MeanOK   time.Duration
	MeanHang time.Duration
	MaxHang  time.Duration

	t     toggler
	hangs int
}

// Name implements Injector.
func (h *AppHang) Name() string { return "hang:" + h.App.Name() }

// Start implements Injector.
func (h *AppHang) Start(pl *Plan) {
	h.t = toggler{
		meanOK:  h.MeanOK,
		meanBad: h.MeanHang,
		maxBad:  h.MaxHang,
		enter: func() {
			h.hangs++
			h.Health.SetHung(true)
			pl.event(h.Name(), "hang begin", float64(h.hangs))
		},
		exit: func() {
			h.Health.SetHung(false)
			pl.event(h.Name(), "hang end", float64(h.hangs))
		},
	}
	h.t.start(pl)
}

// Stop implements Injector, unsticking the process if it is hung.
func (h *AppHang) Stop() { h.t.stop() }

// Hangs reports how many hang windows began.
func (h *AppHang) Hangs() int { return h.hangs }

// AppThrash makes the application defy degradation: during a thrash window
// a pulse loop re-raises its fidelity to maximum every Period, undoing
// whatever the viceroy directed. A restart clears Health's thrashing flag,
// which silences the pulses until the next window begins.
type AppThrash struct {
	App        core.Adaptive
	Health     *supervise.AppHealth
	MeanCalm   time.Duration
	MeanThrash time.Duration
	// Period is the re-raise cadence during a window (default 2 s).
	Period time.Duration

	t       toggler
	pl      *Plan
	pulseEv sim.Event
	windows int
	raises  int
}

// Name implements Injector.
func (th *AppThrash) Name() string { return "thrash:" + th.App.Name() }

// Start implements Injector.
func (th *AppThrash) Start(pl *Plan) {
	th.pl = pl
	if th.Period <= 0 {
		th.Period = 2 * time.Second
	}
	th.t = toggler{
		meanOK:  th.MeanCalm,
		meanBad: th.MeanThrash,
		enter: func() {
			th.windows++
			th.Health.SetThrashing(true)
			pl.event(th.Name(), "thrash begin", float64(th.windows))
			th.pulse()
		},
		exit: func() {
			th.Health.SetThrashing(false)
			pl.event(th.Name(), "thrash end", float64(th.raises))
		},
	}
	th.t.start(pl)
}

// pulse is the defiant application's side of the fight: while the window
// lasts (and the process lives), re-raise to full fidelity.
func (th *AppThrash) pulse() {
	th.pulseEv = th.pl.k.After(th.Period, func() {
		if th.pulseEv == (sim.Event{}) || !th.Health.Thrashing() {
			return
		}
		if th.Health.Alive() {
			if max := len(th.App.Levels()) - 1; th.App.Level() < max {
				th.raises++
				th.App.SetLevel(max)
				th.pl.event(th.Name(), "fidelity re-raised", float64(max))
			}
		}
		th.pulse()
	})
}

// Stop implements Injector, ending any active window.
func (th *AppThrash) Stop() {
	th.pulseEv.Cancel()
	th.pulseEv = sim.Event{}
	th.t.stop()
}

// Raises reports how many times fidelity was defiantly re-raised.
func (th *AppThrash) Raises() int { return th.raises }

// AppLie opens windows in which the application's reported level diverges
// from the level its operations actually run at: it keeps reporting
// whatever the viceroy set while operating Delta levels higher, consuming
// energy its report does not admit to. Detection is the supervisor's
// PowerScope audit — measured attribution against the fidelity model.
type AppLie struct {
	App     core.Adaptive
	Health  *supervise.AppHealth
	MeanOK  time.Duration
	MeanLie time.Duration
	// Delta is how many levels above its report the application operates
	// during a window (default 2).
	Delta int

	t    toggler
	lies int
}

// Name implements Injector.
func (l *AppLie) Name() string { return "lie:" + l.App.Name() }

// Start implements Injector.
func (l *AppLie) Start(pl *Plan) {
	if l.Delta == 0 {
		l.Delta = 2
	}
	l.t = toggler{
		meanOK:  l.MeanOK,
		meanBad: l.MeanLie,
		enter: func() {
			l.lies++
			l.Health.SetLieDelta(l.Delta)
			pl.event(l.Name(), "lie begin", float64(l.Delta))
		},
		exit: func() {
			l.Health.SetLieDelta(0)
			pl.event(l.Name(), "lie end", float64(l.lies))
		},
	}
	l.t.start(pl)
}

// Stop implements Injector, restoring honesty.
func (l *AppLie) Stop() { l.t.stop() }

// Lies reports how many lie windows began.
func (l *AppLie) Lies() int { return l.lies }
