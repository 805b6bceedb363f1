// Package supervise is the application supervision plane: the viceroy's
// defense against applications that do not hold up their end of the
// adaptation contract. The paper's prototype trusts every registered
// application absolutely — an app that crashes, hangs in an upcall,
// re-raises its fidelity behind the viceroy's back, or consumes above its
// reported level silently wrecks the battery-duration goal for everyone.
//
// The supervisor closes that hole with the discipline of a supervision
// tree: every fidelity upcall is delivered through a virtual-clock watchdog
// with an acknowledgment deadline; a periodic audit checks each process for
// death, for fidelity levels that defy the last directive, and for
// PowerScope attribution that exceeds the fidelity model's prediction at the
// reported level. Any of these is a strike, answered by restart with exponential
// backoff and seeded jitter (the internal/netsim/resilient.go pattern);
// when the retry budget is exhausted the application is quarantined —
// killed, excluded from adaptation, and its priority-weighted share of the
// energy budget reallocated across the survivors so the goal is still met.
// Supervision work is charged to the "supervise" PowerScope principal and
// every event is traced under trace.CatSupervise.
//
// With no supervisor installed (Viceroy.SetDeliverer never called), every
// upcall path is byte-identical to the unsupervised system.
package supervise

import (
	"math/rand"
	"time"

	"odyssey/internal/core"
	"odyssey/internal/hw"
	"odyssey/internal/power"
	"odyssey/internal/sim"
	"odyssey/internal/trace"
)

// Principal is the PowerScope software principal charged with supervision
// work: upcall dispatch, watchdog bookkeeping, and application restarts.
const Principal = "supervise"

// Supervisor parameters: deadlines generous against a 500 ms evaluation
// loop, three restarts before quarantine, audits every second.
const (
	// ackDeadline is the virtual-clock watchdog on every delivered upcall;
	// an application that has not acknowledged by then is marked
	// unresponsive.
	ackDeadline = 2 * time.Second
	// retryBudget is how many restarts an application gets before it is
	// quarantined.
	retryBudget = 3
	// restartBackoff is the delay before the first restart; each
	// subsequent restart multiplies it by backoffFactor.
	restartBackoff = 2 * time.Second
	backoffFactor  = 2.0
	// jitterFrac spreads each backoff uniformly by +/- the given fraction
	// from the supervisor's own seeded stream.
	jitterFrac = 0.25
	// restartCPU is the cpu-seconds charged to the supervise principal per
	// restart (exec plus state recovery of the fresh process).
	restartCPU = 0.15
	// deliveryCPU is the cpu-seconds charged per supervised upcall
	// (dispatch plus watchdog arming).
	deliveryCPU = 0.002
	// auditPeriod is how often each application's health is audited.
	auditPeriod = time.Second
	// lieTolerance and lieFloorWatts gate the consumption audit: a strike
	// requires measured power above lieTolerance times the fidelity
	// model's prediction and above the prediction plus the absolute floor,
	// for lieStrikes consecutive audit windows. The margins absorb the
	// burstiness of real attribution windows.
	lieTolerance  = 1.5
	lieFloorWatts = 0.25
	lieStrikes    = 3
	// auditGrace suspends the consumption audit after a level directive or
	// a restart: pipelined work from the previous operating point
	// (prefetched video chunks, buffered decode) keeps the measured draw at
	// the old level for a few seconds, and judging it against the new
	// level's model would re-strike an application that just complied.
	auditGrace = 5 * time.Second
)

// Profile is the consumption-audit contract for one application: the
// app-exclusive PowerScope principal to meter and the fidelity model's
// expected steady power at each level. The zero value disables the audit —
// right for episodic workloads (speech, web, map) whose window power is too
// bursty to judge; the continuously playing video application is the one
// the audit can hold to its model.
type Profile struct {
	// Principal is the application-exclusive software principal whose
	// energy attribution is compared against the model. Shared
	// principals (the X server) would blame one app for another's work.
	Principal string
	// ExpectedPower returns the principal's steady power in watts at a
	// reported fidelity level.
	ExpectedPower func(level int) float64
}

// cellState is the supervision state machine: healthy (upcalls flow),
// restarting (a restart is scheduled; the monitor skips the app), or
// quarantined (killed for good, budget reallocated).
type cellState int

const (
	cellHealthy cellState = iota
	cellRestarting
	cellQuarantined
)

// Cell is one application under supervision.
type Cell struct {
	sup    *Supervisor
	reg    *core.Registration
	health *AppHealth
	prof   Profile

	state        cellState
	hasDirected  bool
	lastDirected int
	// pendingAcks counts delivered upcalls whose watchdog has neither
	// been acknowledged nor fired; the audit defers judgment while a
	// verdict is pending so a swallowed directive is attributed by the
	// watchdog (hang vs crash), not misread as defiance.
	pendingAcks int

	restarts  int
	backoff   time.Duration
	restartEv sim.Event

	lieRun     int
	lastEnergy float64
	lastAuditT time.Duration
	// holdUntil suspends the consumption audit until pipelined work from
	// the previous operating point has drained (see auditGrace).
	holdUntil time.Duration
}

func (c *Cell) name() string { return c.reg.App.Name() }

// Restarts reports how many times the application was restarted.
func (c *Cell) Restarts() int { return c.restarts }

// Quarantined reports whether the application has been quarantined.
func (c *Cell) Quarantined() bool { return c.state == cellQuarantined }

// Supervisor owns the watched cells and implements core.UpcallDeliverer.
// Install it with Viceroy.SetDeliverer and arm the audit with Start.
type Supervisor struct {
	k    *sim.Kernel
	v    *core.Viceroy
	em   *core.EnergyMonitor
	acct *power.Accountant
	cpu  *hw.CPU
	rng  *rand.Rand

	// Log, if set, receives every supervision event under
	// trace.CatSupervise.
	Log *trace.Log

	cells []*Cell
	byReg map[*core.Registration]*Cell

	auditor *sim.Ticker // audit every auditPeriod

	missedAcks  int
	restarts    int
	quarantined []string
	strikes     map[string]int
}

// supSeed decorrelates the supervisor's jitter stream from both the
// kernel's workload stream and the fault plane's.
func supSeed(seed int64) int64 { return seed*2654435761 + 131 }

// New returns a supervisor on k for the applications registered with v.
// em receives budget reallocations on quarantine (nil disables them); acct
// and cpu meter and charge supervision work. seed feeds the backoff-jitter
// stream.
func New(k *sim.Kernel, v *core.Viceroy, em *core.EnergyMonitor, acct *power.Accountant, cpu *hw.CPU, seed int64) *Supervisor {
	s := &Supervisor{
		k:       k,
		v:       v,
		em:      em,
		acct:    acct,
		cpu:     cpu,
		rng:     rand.New(rand.NewSource(supSeed(seed))),
		byReg:   make(map[*core.Registration]*Cell),
		strikes: make(map[string]int),
	}
	s.auditor = k.Every(auditPeriod, s.audit)
	return s
}

// Watch places a registration under supervision with its misbehavior
// surface and (optionally zero) consumption-audit profile.
func (s *Supervisor) Watch(reg *core.Registration, health *AppHealth, prof Profile) *Cell {
	c := &Cell{sup: s, reg: reg, health: health, prof: prof, lastAuditT: s.k.Now()}
	c.lastEnergy = s.principalEnergy(c)
	s.cells = append(s.cells, c)
	s.byReg[reg] = c
	return c
}

// Start arms the periodic health audit.
func (s *Supervisor) Start() { s.auditor.Start() }

// Stop halts the audit and any pending restarts.
func (s *Supervisor) Stop() {
	s.auditor.Stop()
	for _, c := range s.cells {
		c.restartEv.Cancel()
		c.restartEv = sim.Event{}
	}
}

// MissedAcks reports upcalls whose watchdog fired.
func (s *Supervisor) MissedAcks() int { return s.missedAcks }

// Restarts reports restarts performed across all cells.
func (s *Supervisor) Restarts() int { return s.restarts }

// Quarantined lists quarantined application names in quarantine order.
func (s *Supervisor) Quarantined() []string {
	return append([]string(nil), s.quarantined...)
}

// Strikes returns strike counts by cause ("crash", "hang", "thrash",
// "lie").
func (s *Supervisor) Strikes() map[string]int {
	out := make(map[string]int, len(s.strikes))
	for k, v := range s.strikes {
		out[k] = v
	}
	return out
}

// DeliverSetLevel implements core.UpcallDeliverer: the fidelity upcall runs
// under a watchdog; a dead or hung process neither applies it nor
// acknowledges, and the watchdog fires ackDeadline later.
func (s *Supervisor) DeliverSetLevel(r *core.Registration, level int) {
	c := s.byReg[r]
	if c == nil {
		r.App.SetLevel(level) // unwatched registration: plain delivery
		return
	}
	if c.state == cellQuarantined {
		return
	}
	c.hasDirected = true
	c.lastDirected = level
	s.charge(deliveryCPU)
	acked := false
	c.pendingAcks++
	wd := s.k.After(ackDeadline, func() {
		if !acked {
			c.pendingAcks--
			s.missedAck(c, "fidelity upcall")
		}
	})
	if !c.health.Alive() || c.health.Hung() {
		s.trace(c.name(), "upcall swallowed", float64(level))
		return
	}
	c.reg.App.SetLevel(level)
	acked = true
	c.pendingAcks--
	c.holdUntil = s.k.Now() + auditGrace
	wd.Cancel()
}

// missedAck is the watchdog's verdict: the application is unresponsive.
// The cause is resolved by inspection — a process that no longer exists
// crashed; one that exists but did not acknowledge is hung.
func (s *Supervisor) missedAck(c *Cell, what string) {
	s.missedAcks++
	s.trace(c.name(), "unresponsive: "+what, ackDeadline.Seconds())
	cause := "hang"
	if !c.health.Alive() {
		cause = "crash"
	}
	s.strike(c, cause)
}

// strike escalates one observed misbehavior: restart while the budget
// lasts, quarantine after. Strikes against a cell already being handled
// are absorbed.
func (s *Supervisor) strike(c *Cell, cause string) {
	if c.state != cellHealthy {
		return
	}
	s.strikes[cause]++
	if c.restarts >= retryBudget {
		s.quarantine(c, cause)
		return
	}
	s.scheduleRestart(c, cause)
}

// scheduleRestart excludes the application from adaptation and schedules
// its restart with exponential backoff and seeded jitter.
func (s *Supervisor) scheduleRestart(c *Cell, cause string) {
	c.state = cellRestarting
	c.reg.SetExcluded(true)
	if c.backoff <= 0 {
		c.backoff = restartBackoff
	}
	delay := s.jittered(c.backoff)
	c.backoff = time.Duration(float64(c.backoff) * backoffFactor)
	s.trace(c.name(), "restart scheduled ("+cause+")", delay.Seconds())
	c.restartEv = s.k.After(delay, func() { s.restart(c) })
}

// restart brings up a fresh process image: health reset, the last directed
// level re-applied, restart work charged to the supervise principal, and
// the registration returned to adaptation.
func (s *Supervisor) restart(c *Cell) {
	c.restartEv = sim.Event{}
	c.restarts++
	s.restarts++
	s.charge(restartCPU)
	c.health.Reset()
	c.state = cellHealthy
	c.reg.SetExcluded(false)
	if c.hasDirected {
		c.reg.App.SetLevel(c.lastDirected)
	}
	c.lieRun = 0
	c.lastEnergy = s.principalEnergy(c)
	c.lastAuditT = s.k.Now()
	c.holdUntil = s.k.Now() + auditGrace
	s.trace(c.name(), "restarted", float64(c.restarts))
}

// quarantine kills the application for good, keeps it excluded from
// adaptation, and reallocates its energy-budget share across the
// survivors.
func (s *Supervisor) quarantine(c *Cell, cause string) {
	c.state = cellQuarantined
	c.restartEv.Cancel()
	c.restartEv = sim.Event{}
	c.reg.SetExcluded(true)
	c.health.SetCrashed(true)
	s.quarantined = append(s.quarantined, c.name())
	s.trace(c.name(), "quarantined ("+cause+")", float64(c.restarts))
	if s.em != nil {
		s.em.ReallocateBudget(c.name())
	}
}

// audit checks every healthy cell for a dead process, a fidelity level
// that defies the last directive, and consumption above the fidelity
// model. The checks observe only what a real supervisor could: the process
// table, the application's reported level, and PowerScope attribution.
func (s *Supervisor) audit() {
	for _, c := range s.cells {
		if c.state != cellHealthy {
			continue
		}
		if !c.health.Alive() {
			s.trace(c.name(), "process dead", 0)
			s.strike(c, "crash")
			continue
		}
		if c.pendingAcks > 0 {
			// An upcall verdict is pending; let the watchdog attribute
			// the failure (hang vs crash) rather than misreading a
			// swallowed directive as defiance.
			continue
		}
		if c.hasDirected && c.reg.App.Level() != c.lastDirected {
			s.trace(c.name(), "level defies directive", float64(c.reg.App.Level()))
			s.strike(c, "thrash")
			continue
		}
		s.auditPower(c)
	}
}

// auditPower compares the cell's metered power over the audit window with
// the fidelity model's prediction at the reported level; sustained excess
// means the application is consuming above what it claims to run at.
func (s *Supervisor) auditPower(c *Cell) {
	if c.prof.Principal == "" || c.prof.ExpectedPower == nil {
		return
	}
	now := s.k.Now()
	e := s.principalEnergy(c)
	prev, prevT := c.lastEnergy, c.lastAuditT
	c.lastEnergy, c.lastAuditT = e, now
	if now < c.holdUntil {
		c.lieRun = 0
		return
	}
	dt := (now - prevT).Seconds()
	if dt <= 0 {
		return
	}
	w := (e - prev) / dt
	want := c.prof.ExpectedPower(c.reg.App.Level())
	if w > want*lieTolerance && w > want+lieFloorWatts {
		c.lieRun++
		if c.lieRun >= lieStrikes {
			c.lieRun = 0
			s.trace(c.name(), "consumption exceeds fidelity model", w)
			s.strike(c, "lie")
		}
		return
	}
	c.lieRun = 0
}

// principalEnergy reads the cell's exclusive principal's cumulative energy.
func (s *Supervisor) principalEnergy(c *Cell) float64 {
	if s.acct == nil || c.prof.Principal == "" {
		return 0
	}
	return s.acct.PrincipalEnergy(c.prof.Principal)
}

// charge attributes cpu-seconds of supervision work to the supervise
// principal without blocking any process.
func (s *Supervisor) charge(sec float64) {
	if s.cpu != nil {
		s.cpu.RunAsync(Principal, sec, nil)
	}
}

// jittered spreads d by +/- jitterFrac from the supervisor's own stream.
func (s *Supervisor) jittered(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (1 + jitterFrac*(2*s.rng.Float64()-1)))
}

// trace records one supervision event.
func (s *Supervisor) trace(subject, message string, value float64) {
	if s.Log != nil {
		s.Log.Add(trace.CatSupervise, subject, message, value)
	}
}
