package experiment

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/core"
	"odyssey/internal/faults"
	"odyssey/internal/hw"
	"odyssey/internal/netsim"
	"odyssey/internal/offload"
	"odyssey/internal/power"
	"odyssey/internal/sim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/stats"
	"odyssey/internal/supervise"
	"odyssey/internal/textplot"
	"odyssey/internal/trace"
	"odyssey/internal/workload"
)

// Goal-directed experiment constants. The paper used a 12,000 J supply with
// its workload lasting 19:27 at highest fidelity and 27:06 at lowest; our
// simulated workload draws more absolute power (see EXPERIMENTS.md), so the
// supply is scaled to put the highest-fidelity runtime at the same ~19.5
// minutes, preserving the paper's goal structure of 20-26 minutes (a 30%
// spread in demanded battery life).
const (
	// Figure20InitialEnergy is the supply for the 20-26 minute goals.
	Figure20InitialEnergy = 21_850.0
	// Figure22InitialEnergy scales the paper's 90,000 J full battery the
	// same way for the longer-duration bursty runs.
	Figure22InitialEnergy = 164_000.0
	// compositePeriod is how often a composite iteration begins in the
	// goal-directed workload.
	compositePeriod = 25 * time.Second
	// goalHorizon is how far past its goal RunGoal lets a run go before
	// ending it regardless.
	goalHorizon = 4 * time.Hour
)

// GoalOptions parameterizes one goal-directed run.
type GoalOptions struct {
	Seed          int64
	InitialEnergy float64
	Goal          time.Duration
	Config        core.EnergyConfig
	// Bursty selects the stochastic workload of Figure 22 instead of the
	// continuous composite+video workload.
	Bursty bool
	// ExtendAt/ExtendBy revise the goal mid-run (Figure 22 extends a
	// 2:45 goal by 30 minutes after the first hour).
	ExtendAt time.Duration
	ExtendBy time.Duration
	// RecordTrace captures supply/demand/fidelity at each evaluation.
	RecordTrace bool
	// EqualPriority registers every application at the same priority
	// (ablation arm for the priority-ordered degradation policy).
	EqualPriority bool
	// SmartBattery replaces the prototype's external-multimeter
	// measurement path with quantized, rate-limited SmartBattery
	// readings, including the monitoring circuit's power overhead
	// (the deployment path of Section 5.1.1).
	SmartBattery bool
	// Peukert, with SmartBattery, sets the pack's rate-dependence
	// exponent (>1 drains faster at high load — the non-ideal battery
	// behaviour the paper avoided by running from a bench supply).
	Peukert float64
	// Control selects what steers fidelity: the energy monitor (the zero
	// value), a pinned fidelity, or the decentralized thresholds.
	Control Control
	// Faults, if set, builds a fault plan against the trial's rig (bat is
	// nil unless SmartBattery is on); RunPlanned sets it from a
	// faults.PlanSpec. The plan starts with the workload and is stopped
	// when the run finishes.
	Faults func(rig *env.Rig, bat *smartbattery.Battery, seed int64) *faults.Plan
	// RecordEvents attaches a trace log (adaptations, monitor decisions,
	// fault events) returned in GoalResult.Events.
	RecordEvents bool
	// Supervise arms the application supervision plane: every fidelity
	// upcall is delivered through the watchdog, the periodic health audit
	// runs, and misbehaving applications are restarted or quarantined. When
	// false the viceroy's direct delivery path is byte-identical to an
	// unsupervised build.
	Supervise bool
	// Misbehave, if set (and typically with Supervise), builds an
	// application-misbehavior fault plan against the trial's apps;
	// RunPlanned sets it from a faults.PlanSpec. It starts with the
	// workload and is stopped when the run finishes.
	Misbehave func(apps *workload.Apps, seed int64) *faults.Plan
	// Apps restricts the scenario to a subset of the applications by name
	// (nil = all four). The chaos plane uses this to compose random
	// application mixes and to shrink failing mixes.
	Apps []string
	// Profile, if non-nil, selects a hardware power profile other than the
	// reference ThinkPad 560X — the fleet plane's device-class variants
	// (hw.Profile.Scaled).
	Profile *hw.Profile
	// CompositePeriod overrides how often a composite iteration starts in
	// the continuous workload (0 = the paper's 25 s) — the fleet plane's
	// workload-intensity knob. Ignored by the bursty workload.
	CompositePeriod time.Duration
	// StallBound overrides the kernel's virtual-time stall bound for this
	// run (0 = the kernel default, <0 disables detection). The chaos
	// plane's planted-livelock repros use small bounds so shrinking a
	// stalling scenario stays fast.
	StallBound int
	// Offload, if set, arms the offload plane: a multi-server pool and the
	// decision-and-execution service the applications consult. Nil keeps
	// every application on its legacy path byte for byte.
	Offload *OffloadConfig
}

// Control selects what steers fidelity during a goal run.
type Control int

const (
	// Directed, the paper's design: the energy monitor predicts demand
	// against supply and directs adaptation toward the goal.
	Directed Control = iota
	// PinHighest runs every application at highest fidelity with no
	// adaptation; with an unreachable goal the run measures the top of
	// the feasible runtime band.
	PinHighest
	// PinLowest pins the lowest fidelity: the bottom of the band.
	PinLowest
	// Thresholds is the decentralized alternative of
	// DecentralizedComparison: each application degrades itself as the
	// residual energy crosses fixed fractions of the initial supply (see
	// startThresholds).
	Thresholds
)

// OffloadConfig parameterizes the offload plane for one run. Chaos
// scenarios store it as JSON under these tags.
type OffloadConfig struct {
	// Servers is the pool size (<=0 leaves the plane disarmed).
	Servers int `json:"servers"`
	// Contention is the cross-device load level other clients put on the
	// pool (0 = idle fleet; see netsim.Pool.StartContention).
	Contention float64 `json:"contention,omitempty"`
	// NoHedge disarms the hedged second request.
	NoHedge bool `json:"no_hedge,omitempty"`
	// Policy forces the placement verdict ("local"/"remote"; any other
	// value, "" or "auto", runs the cost model).
	Policy string `json:"policy,omitempty"`
}

// offloadSeed derives the offload plane's RNG stream from the run seed,
// disjoint by construction from the kernel, fault, and misbehavior streams.
func offloadSeed(seed int64) int64 { return seed*2654435761 + 307 }

// GoalResult is the outcome of one goal-directed run.
type GoalResult struct {
	Goal        time.Duration
	Met         bool
	Residual    float64
	EndTime     time.Duration
	Adaptations map[string]int
	Trace       []core.TracePoint
	// MeanFidelity is the time-average normalized fidelity (0 = lowest,
	// 1 = highest) per application — the paper's secondary goal is to
	// "provide as high a fidelity as possible at all times".
	MeanFidelity map[string]float64

	// Resilience observables (zero in fault-free runs).
	RetryEnergy    float64 // joules attributed to the net-retry principal
	RetryAttempts  int
	RetryBytes     float64
	DeadlineAborts int
	Fallbacks      int // speech recognitions completed locally after RPC failure
	Bypasses       int // web fetches that bypassed the distillation proxy
	CacheHits      int // web fetches served from cache (network unusable)
	ChunksLost     int // video chunks abandoned to rebuffering
	MissedSamples  int // power readings the monitor had to skip
	FaultEvents    int
	FaultCounts    map[string]int
	// Events is the run's trace log when RecordEvents was set.
	Events *trace.Log

	// Offload observables (zero when the plane is disarmed).
	OffloadEnergy    float64 // joules attributed to the offload principal
	OffloadLocal     int     // verdicts that ran locally from the start
	OffloadRemote    int     // completed remote placements
	OffloadHybrid    int     // completed hybrid placements
	OffloadHedges    int     // hedged second requests engaged
	OffloadFailovers int     // re-dispatches after a crash or link cut
	OffloadFallbacks int     // remote/hybrid verdicts degraded to local
	BreakerTrips     int     // circuit-breaker open transitions

	// Supervision observables (zero when the supervisor is disarmed).
	SuperviseEnergy float64        // joules attributed to the supervise principal
	MissedAcks      int            // upcall watchdogs that fired
	Restarts        int            // application restarts performed
	Quarantined     []string       // applications quarantined, in order
	Strikes         map[string]int // strikes by cause (crash/hang/thrash/lie)
	BudgetShares    map[string]float64

	// Ledger is the run's energy accounting as the run ends.
	Ledger Ledger
}

// Ledger is a run's energy accounting at its end: the exact integral of
// system power, the same energy attributed by hardware component and by
// software principal, the virtual time the integrals cover, and the
// budget ledger's audit verdict. The chaos sentinels audit it, and the
// fleet folds its total and principals into the fleet reduction.
type Ledger struct {
	Total       float64
	ByComponent map[string]float64
	ByPrincipal map[string]float64
	Elapsed     time.Duration
	BudgetErr   error
}

// observeRig, when non-nil, sees each finished run's rig. It exists solely
// for tests that check state no result field carries. Never set outside
// tests.
var observeRig func(*env.Rig)

// fidelityAverager accumulates time-weighted fidelity levels. Weights are
// indexed like apps, so an observation only reads levels and adds.
type fidelityAverager struct {
	apps    []*core.Registration
	last    time.Duration
	weights []float64
	total   time.Duration
}

func newFidelityAverager(apps []*core.Registration) *fidelityAverager {
	return &fidelityAverager{apps: apps, weights: make([]float64, len(apps))}
}

// observe charges the interval since the last observation at each app's
// current normalized level.
func (fa *fidelityAverager) observe(now time.Duration) {
	dt := now - fa.last
	fa.last = now
	if dt <= 0 {
		return
	}
	fa.total += dt
	for i, r := range fa.apps {
		max := r.NumLevels() - 1
		norm := 1.0
		if max > 0 {
			norm = float64(r.App.Level()) / float64(max)
		}
		fa.weights[i] += norm * dt.Seconds()
	}
}

// means returns the time-averaged normalized fidelity per application.
func (fa *fidelityAverager) means() map[string]float64 {
	if fa.total <= 0 {
		return map[string]float64{}
	}
	out := make(map[string]float64, len(fa.apps))
	for i, r := range fa.apps {
		out[r.App.Name()] = fa.weights[i] / fa.total.Seconds()
	}
	return out
}

// RunGoal executes one goal-directed energy adaptation experiment.
func RunGoal(opt GoalOptions) GoalResult {
	profile := hw.ThinkPad560X()
	if opt.Profile != nil {
		profile = *opt.Profile
	}
	rig := env.NewRigProfile(opt.Seed, 1, profile)
	rig.EnablePowerMgmt()
	if opt.StallBound != 0 {
		bound := opt.StallBound
		if bound < 0 {
			bound = 0
		}
		rig.K.SetStallBound(bound)
	}
	// Tear the rig down even when the run panics (a contained process fault
	// or a stall unwinding Kernel.Run): parked process goroutines would
	// otherwise outlive the session and pin it, growing memory with trial
	// count — fatal for fleet soaks that run millions of sessions through
	// this path, and for chaos shrinking, which replays a crashing scenario
	// hundreds of times. Run's own deferred reset of the running flag fires
	// first during unwind, so Shutdown always sees a stopped kernel.
	defer rig.K.Shutdown()
	if oc := opt.Offload; oc != nil && oc.Servers > 0 {
		rig.EnableOffload(oc.Servers, oc.Contention, offloadSeed(opt.Seed), offload.Config{
			Hedge:  !oc.NoHedge,
			Policy: oc.Policy,
		})
	}
	apps := workload.NewApps(rig)
	if opt.Apps != nil {
		if err := apps.Enable(opt.Apps...); err != nil {
			//odylint:allow panicfree GoalOptions.Apps is programmer-supplied configuration; chaos validates names before calling
			panic(err)
		}
	}
	regs := apps.Register()
	if opt.EqualPriority {
		for _, r := range regs {
			r.SetPriority(1)
		}
	}
	apps.SetAllHighest()
	if opt.Control == PinLowest {
		apps.SetAllLowest()
	}

	cfg := opt.Config
	if cfg == (core.EnergyConfig{}) {
		cfg = core.DefaultEnergyConfig()
	}
	var (
		em       *core.EnergyMonitor
		residual func() float64
		depleted func() bool
		bat      *smartbattery.Battery
	)
	if opt.SmartBattery {
		bat = smartbattery.New(rig.K, rig.M.Acct, opt.Peukert, opt.InitialEnergy)
		bat.SetPolling(true)
		em = core.NewEnergyMonitorSource(rig.V, smartbattery.Source{B: bat}, cfg)
		residual = bat.TrueResidual
		depleted = bat.Depleted
	} else {
		supply := power.NewSupply(rig.M.Acct, opt.InitialEnergy)
		em = core.NewEnergyMonitor(rig.V, rig.M.Acct, supply, cfg)
		residual = supply.Residual
		depleted = supply.Depleted
	}
	em.SetGoal(opt.Goal)
	if rig.Offload != nil {
		initial := opt.InitialEnergy
		rig.Offload.SetPressure(func() float64 {
			if initial <= 0 {
				return 0.5
			}
			return 1 - residual()/initial
		})
	}

	res := GoalResult{Goal: opt.Goal, Adaptations: make(map[string]int)}
	if opt.RecordEvents {
		res.Events = trace.NewLog(rig.K.Now, 0)
		em.Events = res.Events
	}
	var sup *supervise.Supervisor
	if opt.Supervise {
		sup = supervise.New(rig.K, rig.V, em, rig.M.Acct, rig.M.CPU, opt.Seed)
		sup.Log = res.Events
		apps.Supervise(sup, regs)
		rig.V.SetDeliverer(sup)
		sup.Start()
	}
	var plan *faults.Plan
	if opt.Faults != nil {
		if plan = opt.Faults(rig, bat, opt.Seed); plan != nil {
			plan.Log = res.Events
			plan.Start()
		}
	}
	var misPlan *faults.Plan
	if opt.Misbehave != nil {
		if misPlan = opt.Misbehave(apps, opt.Seed); misPlan != nil {
			misPlan.Log = res.Events
			misPlan.Start()
		}
	}
	avg := newFidelityAverager(regs)
	em.Trace = func(tp core.TracePoint) {
		avg.observe(tp.Time)
		if opt.RecordTrace {
			tp.Levels = make(map[string]int, len(regs))
			for _, r := range regs {
				tp.Levels[r.App.Name()] = r.App.Level()
			}
			res.Trace = append(res.Trace, tp)
		}
	}
	stopControl := func() {}
	switch opt.Control {
	case Directed:
		em.Start()
		stopControl = em.Stop
	case Thresholds:
		stopControl = startThresholds(rig, regs, opt.InitialEnergy, residual, avg)
	}

	goal := opt.Goal
	if opt.ExtendAt > 0 {
		rig.K.At(opt.ExtendAt, func() {
			goal = opt.Goal + opt.ExtendBy
			em.SetGoal(goal)
		})
	}

	done := false
	var watch *sim.Ticker
	finish := func(met bool) {
		if done {
			return
		}
		done = true
		res.Met = met
		res.Residual = residual()
		res.EndTime = rig.K.Now()
		if misPlan != nil {
			misPlan.Stop()
		}
		if plan != nil {
			plan.Stop()
		}
		if sup != nil {
			sup.Stop()
		}
		stopControl()
		watch.Stop()
		rig.K.Stop()
	}
	watch = rig.K.Every(250*time.Millisecond, func() {
		switch {
		case depleted():
			// The supply drained; the goal is met only if we
			// reached it (the pinned runs measure runtime this
			// way).
			finish(rig.K.Now() >= goal)
		case rig.K.Now() >= goal:
			finish(true)
		}
	})
	watch.Start()

	until := func() bool { return done }
	if opt.Bursty {
		apps.StartBurstyWorkload(until)
	} else {
		period := opt.CompositePeriod
		if period <= 0 {
			period = compositePeriod
		}
		apps.StartGoalWorkload(period, until)
	}

	rig.K.Run(goal + goalHorizon)
	if !done {
		finish(rig.K.Now() >= goal)
	}
	avg.observe(res.EndTime)
	res.MeanFidelity = avg.means()
	for _, r := range regs {
		res.Adaptations[r.App.Name()] = r.Adaptations
	}
	res.RetryEnergy = rig.M.Acct.PrincipalEnergy(netsim.PrincipalRetry)
	res.RetryAttempts = rig.Net.RetryAttempts()
	res.RetryBytes = rig.Net.RetryBytes()
	res.DeadlineAborts = rig.Net.DeadlineAborts()
	res.Fallbacks = apps.Speech.Fallbacks
	res.Bypasses = apps.Web.Bypasses
	res.CacheHits = apps.Web.CacheHits
	res.ChunksLost = apps.Video.Totals.ChunksLost
	res.MissedSamples = em.MissedSamples()
	if plan != nil {
		res.FaultEvents = plan.TotalEvents()
		_, res.FaultCounts = plan.Counts()
	}
	if misPlan != nil {
		res.FaultEvents += misPlan.TotalEvents()
		if res.FaultCounts == nil {
			res.FaultCounts = make(map[string]int)
		}
		_, mc := misPlan.Counts()
		for k, v := range mc {
			res.FaultCounts[k] += v
		}
	}
	if rig.Offload != nil {
		st := rig.Offload.Stats
		res.OffloadEnergy = rig.M.Acct.PrincipalEnergy(offload.Principal)
		res.OffloadLocal = st.LocalRuns
		res.OffloadRemote = st.RemoteRuns
		res.OffloadHybrid = st.HybridRuns
		res.OffloadHedges = st.Hedges
		res.OffloadFailovers = st.Failovers
		res.OffloadFallbacks = st.Fallbacks
		res.BreakerTrips = st.BreakerTrips
	}
	if sup != nil {
		res.SuperviseEnergy = rig.M.Acct.PrincipalEnergy(supervise.Principal)
		res.MissedAcks = sup.MissedAcks()
		res.Restarts = sup.Restarts()
		res.Quarantined = sup.Quarantined()
		res.Strikes = sup.Strikes()
		res.BudgetShares = em.BudgetShares()
	}
	res.Ledger = Ledger{
		Total:       rig.M.Acct.TotalEnergy(),
		ByComponent: rig.M.Acct.EnergyByComponent(),
		ByPrincipal: rig.M.Acct.EnergyByPrincipal(),
		Elapsed:     rig.K.Now(),
		BudgetErr:   em.AuditBudgetShares(),
	}
	if observeRig != nil {
		observeRig(rig)
	}
	return res
}

// Arms is a goal-directed figure reduced for display, the goal sweeps'
// counterpart of Grid: one row per arm (configuration of the sweep).
type Arms struct {
	Title  string
	Labels []string // headings of the label columns
	Rows   []ArmRow
	cols   []column
}

// ArmRow is one arm of a goal sweep: its label cells, the percentage of its
// trials that met the goal, and one summary per named column.
type ArmRow struct {
	Labels []string
	MetPct float64
	Values map[string]stats.Summary // by column heading
}

// column is one summary column of a goal sweep: its heading, the reduction
// of an arm's trials in trial order, and its rendering (nil = mean ± 90% CI).
type column struct {
	name   string
	reduce func(rs []GoalResult) stats.Summary
	format func(stats.Summary) string
}

// per is the column summarizing one per-run quantity across an arm's trials.
func per(name string, of func(GoalResult) float64) column {
	return column{name: name, reduce: func(rs []GoalResult) stats.Summary {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = of(r)
		}
		return stats.Summarize(xs)
	}}
}

// Columns shared across the goal-directed figures.
var (
	residualCol    = per("Residual (J)", func(r GoalResult) float64 { return r.Residual })
	faultEventsCol = per("Fault events", func(r GoalResult) float64 { return float64(r.FaultEvents) })
	goalCols       = []column{residualCol, adaptCol("speech"), adaptCol("video"), adaptCol("map"), adaptCol("web")}
)

// adaptCol counts one application's adaptation upcalls.
func adaptCol(app string) column {
	return per("Adapt "+app, func(r GoalResult) float64 { return float64(r.Adaptations[app]) })
}

// totalAdaptsCol counts upcalls across every application.
func totalAdaptsCol(name string) column {
	return per(name, func(r GoalResult) float64 {
		total := 0
		for _, n := range r.Adaptations {
			total += n
		}
		return float64(total)
	})
}

// summarize reduces a sweep, serially and in trial order, to one row per
// arm; label(a) gives arm a's label cells.
func summarize(title string, labels []string, cols []column, rs [][]GoalResult, label func(a int) []string) *Arms {
	s := &Arms{Title: title, Labels: labels, cols: cols}
	for a, trials := range rs {
		met := 0
		for _, r := range trials {
			if r.Met {
				met++
			}
		}
		row := ArmRow{Labels: label(a), MetPct: float64(met) / float64(len(trials)) * 100,
			Values: make(map[string]stats.Summary, len(cols))}
		for _, c := range cols {
			row.Values[c.name] = c.reduce(trials)
		}
		s.Rows = append(s.Rows, row)
	}
	return s
}

// Table renders the arms: the label columns, "Met", then one column per
// summary.
func (s *Arms) Table() *Table {
	t := &Table{Title: s.Title, Columns: append(append([]string(nil), s.Labels...), "Met")}
	for _, c := range s.cols {
		t.Columns = append(t.Columns, c.name)
	}
	for _, r := range s.Rows {
		cells := append(append([]string(nil), r.Labels...), fmt.Sprintf("%.0f%%", r.MetPct))
		for _, c := range s.cols {
			if c.format != nil {
				cells = append(cells, c.format(r.Values[c.name]))
			} else {
				cells = append(cells, r.Values[c.name].String())
			}
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}

// Figure20 runs the goal-directed summary: battery-duration goals of 20,
// 22, 24 and 26 minutes, trials runs each, reporting goal success, residual
// energy, and adaptation counts.
func Figure20(trials int) *Arms {
	goals := []time.Duration{20 * time.Minute, 22 * time.Minute, 24 * time.Minute, 26 * time.Minute}
	rs := sweep(len(goals), trials, func(a, t int) GoalResult {
		return RunGoal(GoalOptions{
			Seed:          int64(2000 + a*17 + t),
			InitialEnergy: Figure20InitialEnergy,
			Goal:          goals[a],
		})
	})
	return summarize("Figure 20: summary of goal-directed adaptation (5 trials per goal)",
		[]string{"Goal"}, goalCols, rs, func(a int) []string {
			return []string{fmt.Sprintf("%d:%02d", int(goals[a].Minutes()), int(goals[a].Seconds())%60)}
		})
}

// Figure19 records the adaptation traces for the 20- and 26-minute goals.
func Figure19() []GoalResult {
	goals := []time.Duration{20 * time.Minute, 26 * time.Minute}
	rs := sweep(len(goals), 1, func(a, _ int) GoalResult {
		return RunGoal(GoalOptions{
			Seed:          int64(1900 + a),
			InitialEnergy: Figure20InitialEnergy,
			Goal:          goals[a],
			RecordTrace:   true,
		})
	})
	return []GoalResult{rs[0][0], rs[1][0]}
}

// SupplyDemandChart renders a goal run's trace as an ASCII chart of residual
// supply and predicted demand against time, Figure 19's top graph.
func SupplyDemandChart(title string, points []core.TracePoint) string {
	chart := textplot.New(title, 64, 12)
	chart.XLabel = "seconds"
	ts := make([]float64, len(points))
	supply := make([]float64, len(points))
	demand := make([]float64, len(points))
	for i, tp := range points {
		ts[i], supply[i], demand[i] = tp.Time.Seconds(), tp.Supply, tp.Demand
	}
	chart.Add(textplot.Series{Name: "supply (J)", X: ts, Y: supply})
	chart.Add(textplot.Series{Name: "demand (J)", X: ts, Y: demand})
	return chart.String()
}

// Figure21 sweeps the smoothing half-life (as a fraction of remaining time)
// at the hardest goal, reproducing the paper's sensitivity analysis.
func Figure21(trials int) *Arms {
	halfLives := []float64{0.01, 0.05, 0.10, 0.15}
	rs := sweep(len(halfLives), trials, func(a, t int) GoalResult {
		cfg := core.DefaultEnergyConfig()
		cfg.HalfLifeFraction = halfLives[a]
		return RunGoal(GoalOptions{
			Seed:          int64(2100 + a*23 + t),
			InitialEnergy: Figure20InitialEnergy,
			Goal:          26 * time.Minute,
			Config:        cfg,
		})
	})
	return summarize("Figure 21: sensitivity to smoothing half-life (26-minute goal)",
		[]string{"Half-life"}, goalCols, rs, func(a int) []string {
			return []string{fmt.Sprintf("%.2f", halfLives[a])}
		})
}

// Figure22 runs the longer-duration bursty experiments: a 2:45 goal
// extended by 30 minutes at the end of the first hour, on the scaled
// full-battery supply, with the stochastic workload.
func Figure22(trials int) []GoalResult {
	return sweep(1, trials, func(_, t int) GoalResult { return runBursty(int64(2200 + t)) })[0]
}

// runBursty is one of Figure 22's runs, seeded seed.
func runBursty(seed int64) GoalResult {
	return RunGoal(GoalOptions{
		Seed:          seed,
		InitialEnergy: Figure22InitialEnergy,
		Goal:          2*time.Hour + 45*time.Minute,
		Bursty:        true,
		ExtendAt:      time.Hour,
		ExtendBy:      30 * time.Minute,
	})
}

// BurstyTable renders Figure 22, one row per trial.
func BurstyTable(results []GoalResult) *Table {
	t := &Table{
		Title:   "Figure 22: longer-duration goal-directed adaptation (bursty workloads, goal 2:45 extended to 3:15 at t=1h)",
		Columns: []string{"Trial", "Goal met", "Residual (J)", "Adapt speech", "Adapt video", "Adapt map", "Adapt web"},
	}
	for i, r := range results {
		met := "Yes"
		if !r.Met {
			met = "No"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			met,
			fmt.Sprintf("%.0f", r.Residual),
			fmt.Sprintf("%d", r.Adaptations["speech"]),
			fmt.Sprintf("%d", r.Adaptations["video"]),
			fmt.Sprintf("%d", r.Adaptations["map"]),
			fmt.Sprintf("%d", r.Adaptations["web"]),
		})
	}
	return t
}
