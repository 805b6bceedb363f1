package core

import (
	"time"

	"odyssey/internal/power"
	"odyssey/internal/sim"
	"odyssey/internal/trace"
)

// The prototype's fixed timing, which no run varies.
const (
	// samplePeriod is the power-measurement interval.
	samplePeriod = 100 * time.Millisecond
	// evalPeriod is how often adaptation decisions are made ("Odyssey
	// performs these actions twice a second").
	evalPeriod = 500 * time.Millisecond
	// infeasibleStreak is the minimum number of consecutive evaluations
	// that must find demand exceeding supply with every application
	// already at lowest fidelity before the user is notified that the
	// goal is infeasible. The notification additionally waits two
	// smoothing half-lives so the power estimate has had time to reflect
	// the degraded workload.
	infeasibleStreak = 10
)

// EnergyConfig holds the goal-directed adaptation parameters that Figure 21
// and the ablations vary. The defaults are the paper's prototype settings.
type EnergyConfig struct {
	// HalfLifeFraction sets the exponential-smoothing half-life to this
	// fraction of the time remaining until the goal (0.10; Figure 21 is
	// the paper's sensitivity analysis).
	HalfLifeFraction float64
	// FixedAlpha, if positive, disables the time-scaled half-life and
	// uses a constant smoothing weight instead (ablation arm).
	FixedAlpha float64
	// HystResidualFraction and HystInitialFraction define the hysteresis
	// zone: fidelity improves only when supply exceeds demand by more
	// than HystResidualFraction*residual + HystInitialFraction*initial
	// (5% and 1% in the prototype).
	HystResidualFraction float64
	HystInitialFraction  float64
	// UpgradeInterval caps fidelity improvements to one per interval
	// (15 s in the prototype). Zero disables the cap (ablation arm).
	UpgradeInterval time.Duration
}

// DefaultEnergyConfig returns the paper's prototype parameters.
func DefaultEnergyConfig() EnergyConfig {
	return EnergyConfig{
		HalfLifeFraction:     0.10,
		HystResidualFraction: 0.05,
		HystInitialFraction:  0.01,
		UpgradeInterval:      15 * time.Second,
	}
}

// EnergySource abstracts where the monitor's supply and demand readings
// come from. The prototype path (NewEnergyMonitor) computes exact average
// power from the accountant — the on-line PowerScope of the paper — while
// deployed systems would read a SmartBattery (see internal/smartbattery),
// which quantizes and rate-limits the readings.
type EnergySource interface {
	// Residual returns the remaining energy in joules.
	Residual() float64
	// Initial returns the starting energy in joules (for the constant
	// component of the hysteresis threshold).
	Initial() float64
	// SamplePower returns the power reading for the current sampling
	// instant, in watts. Implementations may average since the previous
	// call or return a quantized instantaneous reading.
	SamplePower() float64
}

// meterSource is the prototype measurement path: average power between
// samples from the accountant's exact integral, residual from the supply.
type meterSource struct {
	k      *sim.Kernel
	acct   *power.Accountant
	supply *power.Supply
	lastE  float64
	lastT  time.Duration
}

func newMeterSource(k *sim.Kernel, acct *power.Accountant, supply *power.Supply) *meterSource {
	return &meterSource{k: k, acct: acct, supply: supply, lastE: acct.TotalEnergy(), lastT: k.Now()}
}

func (m *meterSource) Residual() float64 { return m.supply.Residual() }
func (m *meterSource) Initial() float64  { return m.supply.Initial() }

func (m *meterSource) SamplePower() float64 {
	now := m.k.Now()
	e := m.acct.TotalEnergy()
	dt := (now - m.lastT).Seconds()
	if dt <= 0 {
		return 0
	}
	p := (e - m.lastE) / dt
	m.lastE = e
	m.lastT = now
	return p
}

// TracePoint is one observation of the adaptation state, recorded at each
// evaluation — the data behind the paper's Figure 19.
type TracePoint struct {
	Time   time.Duration
	Supply float64 // residual energy (J)
	Demand float64 // predicted future demand (J)
	// Levels maps application name to fidelity level. The monitor leaves
	// it nil, so an evaluation allocates nothing; a consumer that keeps
	// the point fills it (experiment.RunGoal does under RecordTrace).
	Levels map[string]int
}

// EnergyMonitor extends Odyssey with energy supply and demand monitoring
// and directs registered applications' adaptation to make the supply last
// for a user-specified duration.
type EnergyMonitor struct {
	v   *Viceroy
	src EnergySource
	cfg EnergyConfig

	goal time.Duration

	smoothed   float64
	haveSample bool

	lastUpgrade      time.Duration
	infeasibleCount  int
	infeasibleSince  time.Duration // -1 when the condition does not hold
	notifiedInfeasOn bool

	sampler   *sim.Ticker // takeSample every samplePeriod
	evaluator *sim.Ticker // evaluate every evalPeriod

	// OnInfeasible, if set, is called once when the monitor concludes the
	// goal cannot be met even at lowest fidelity.
	OnInfeasible func()
	// Trace, if set, receives a point at every evaluation.
	Trace func(TracePoint)
	// Events, if set, records adaptation decisions in the event log.
	Events *trace.Log

	degrades int
	upgrades int

	missedSamples int // readings <= 0 (e.g. SmartBattery dropouts)
	staleRun      int // consecutive missed readings
}

// staleStreak is how many consecutive missed power readings it takes before
// the monitor logs that its energy view has gone stale (a SmartBattery
// dropout leaves it adapting on old data).
const staleStreak = 5

// NewEnergyMonitor attaches goal-directed energy adaptation to v, drawing
// residual-energy readings from supply and power readings from acct (the
// prototype's on-line PowerScope measurement path).
func NewEnergyMonitor(v *Viceroy, acct *power.Accountant, supply *power.Supply, cfg EnergyConfig) *EnergyMonitor {
	return NewEnergyMonitorSource(v, newMeterSource(v.k, acct, supply), cfg)
}

// NewEnergyMonitorSource attaches goal-directed energy adaptation to v with
// an arbitrary measurement source (e.g. a SmartBattery).
func NewEnergyMonitorSource(v *Viceroy, src EnergySource, cfg EnergyConfig) *EnergyMonitor {
	em := &EnergyMonitor{
		v:               v,
		src:             src,
		cfg:             cfg,
		lastUpgrade:     -1 << 60,
		infeasibleSince: -1,
	}
	em.sampler = v.k.Every(samplePeriod, em.takeSample)
	em.evaluator = v.k.Every(evalPeriod, em.evaluate)
	return em
}

// SetGoal sets or revises the battery-duration goal as an absolute virtual
// time. Users revise goals mid-run in the paper's longer experiments.
func (em *EnergyMonitor) SetGoal(goal time.Duration) { em.goal = goal }

// Goal returns the current goal.
func (em *EnergyMonitor) Goal() time.Duration { return em.goal }

// Start begins sampling and evaluation.
func (em *EnergyMonitor) Start() {
	if em.evaluator.Running() {
		return
	}
	em.src.SamplePower() // reset the source's averaging window
	em.sampler.Start()
	em.evaluator.Start()
}

// Stop halts the monitor. It may be called from the monitor's own hooks.
func (em *EnergyMonitor) Stop() {
	em.sampler.Stop()
	em.evaluator.Stop()
}

// Degrades and Upgrades report the number of adaptation upcalls issued in
// each direction.
func (em *EnergyMonitor) Degrades() int { return em.degrades }

// Upgrades reports the number of fidelity-improvement upcalls issued.
func (em *EnergyMonitor) Upgrades() int { return em.upgrades }

// MissedSamples reports power readings that came back non-positive (the
// sampling loop skips them; sustained runs are logged as stale).
func (em *EnergyMonitor) MissedSamples() int { return em.missedSamples }

// SmoothedPower returns the current smoothed power estimate in watts.
func (em *EnergyMonitor) SmoothedPower() float64 { return em.smoothed }

// PredictedDemand returns the current future-demand estimate in joules.
func (em *EnergyMonitor) PredictedDemand() float64 {
	remaining := em.goal - em.v.k.Now()
	if remaining < 0 {
		remaining = 0
	}
	return em.smoothed * remaining.Seconds()
}

// alpha computes the smoothing weight of the old estimate for the current
// instant: the half-life of the decay is HalfLifeFraction of the time
// remaining until the goal, so the system is stable when the goal is
// distant and agile as it nears.
func (em *EnergyMonitor) alpha() float64 {
	if em.cfg.FixedAlpha > 0 {
		return em.cfg.FixedAlpha
	}
	remaining := em.goal - em.v.k.Now()
	if remaining <= 0 {
		return 0
	}
	halfLife := em.cfg.HalfLifeFraction * remaining.Seconds()
	if halfLife <= 0 {
		return 0
	}
	return power.HalfPow(samplePeriod.Seconds() / halfLife)
}

// takeSample observes average power over the last sample period (the
// constant-power-between-samples assumption of the paper) and folds it into
// the smoothed estimate: new = (1-alpha)*sample + alpha*old.
func (em *EnergyMonitor) takeSample() {
	sample := em.src.SamplePower()
	if sample <= 0 {
		em.missedSamples++
		em.staleRun++
		if em.staleRun == staleStreak && em.Events != nil {
			em.Events.Add(trace.CatMonitor, "odyssey", "energy readings stale", float64(em.staleRun))
		}
		return
	}
	em.staleRun = 0
	if !em.haveSample {
		em.smoothed = sample
		em.haveSample = true
		return
	}
	a := em.alpha()
	em.smoothed = (1-a)*sample + a*em.smoothed
}

// evaluate compares predicted demand with residual supply and directs one
// adaptation if warranted.
func (em *EnergyMonitor) evaluate() {
	now := em.v.k.Now()
	if now >= em.goal {
		return // goal reached; nothing to direct
	}
	residual := em.src.Residual()
	demand := em.PredictedDemand()

	if em.Trace != nil {
		em.Trace(TracePoint{Time: now, Supply: residual, Demand: demand})
	}

	if demand > residual {
		if em.degradeOne() {
			em.infeasibleCount = 0
			em.infeasibleSince = -1
			return
		}
		// Everyone already at lowest fidelity. Declare the goal
		// infeasible only once the condition has persisted both for
		// the configured streak and for two smoothing half-lives, so
		// the power estimate reflects the fully degraded workload.
		em.infeasibleCount++
		if em.infeasibleSince < 0 {
			em.infeasibleSince = now
		}
		halfLife := time.Duration(em.cfg.HalfLifeFraction * float64(em.goal-now))
		if em.infeasibleCount >= infeasibleStreak &&
			now-em.infeasibleSince >= 2*halfLife &&
			!em.notifiedInfeasOn {
			em.notifiedInfeasOn = true
			if em.Events != nil {
				em.Events.Add(trace.CatMonitor, "odyssey", "goal infeasible at lowest fidelity", demand-residual)
			}
			if em.OnInfeasible != nil {
				em.OnInfeasible()
			}
		}
		return
	}
	em.infeasibleCount = 0
	em.infeasibleSince = -1

	headroom := residual - demand
	threshold := em.cfg.HystResidualFraction*residual + em.cfg.HystInitialFraction*em.src.Initial()
	if headroom > threshold {
		if em.cfg.UpgradeInterval > 0 && now-em.lastUpgrade < em.cfg.UpgradeInterval {
			return
		}
		if em.upgradeOne() {
			em.lastUpgrade = now
		}
	}
}

// degradeOne lowers the fidelity of the lowest-priority application that is
// not already at its minimum, skipping excluded registrations (restarting or
// quarantined applications cannot act on the upcall). It reports whether any
// change was directed.
func (em *EnergyMonitor) degradeOne() bool {
	for _, r := range em.v.byPriority() {
		if r.Excluded() {
			continue
		}
		lvl := r.App.Level()
		if lvl > 0 {
			em.v.deliverSetLevel(r, r.clamp(lvl-1))
			r.Adaptations++
			em.degrades++
			if em.Events != nil {
				em.Events.Add(trace.CatAdapt, r.App.Name(), "degrade", float64(r.App.Level()))
			}
			return true
		}
	}
	return false
}

// upgradeOne raises the fidelity of the highest-priority application that
// is not already at its maximum — the reverse of degradation order.
func (em *EnergyMonitor) upgradeOne() bool {
	prio := em.v.byPriority()
	for i := len(prio) - 1; i >= 0; i-- {
		r := prio[i]
		if r.Excluded() {
			continue
		}
		lvl := r.App.Level()
		if lvl < r.levels-1 {
			em.v.deliverSetLevel(r, r.clamp(lvl+1))
			r.Adaptations++
			em.upgrades++
			if em.Events != nil {
				em.Events.Add(trace.CatAdapt, r.App.Name(), "upgrade", float64(r.App.Level()))
			}
			return true
		}
	}
	return false
}
