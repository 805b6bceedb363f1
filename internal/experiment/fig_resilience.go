package experiment

import (
	"fmt"
	"time"

	"odyssey/internal/faults"
)

// resilienceLadder is the escalating fault-plan ladder, benign first, and
// the single source of its rung names and plans. Runs under it read the
// bench supply, so no rung drops SmartBattery readouts. The "mid" plan is
// the acceptance bar: outages bounded to ~8% of wall time (mean 10 s down
// per ~2:10 cycle, single outage capped at 45 s) and server crash windows
// capped at 60 s.
var resilienceLadder = []rung{
	{name: "none"},
	// Brief rare outages and light byte loss: the failure level a
	// well-covered campus network shows.
	{name: "mild", plan: &faults.PlanSpec{Name: "mild", Injectors: []faults.InjectorSpec{
		{Kind: faults.KindLink, MeanUp: faults.Dur(5 * time.Minute), MeanDown: faults.Dur(5 * time.Second), MaxDown: faults.Dur(20 * time.Second)},
		{Kind: faults.KindLoss, Fraction: 0.02, Spread: 0.5},
	}}},
	// The acceptance bar: outages well under 10% of wall time, janus
	// crash windows capped at 60 s, loss, and a distill-server slowdown.
	{name: "mid", plan: &faults.PlanSpec{Name: "mid", Injectors: []faults.InjectorSpec{
		{Kind: faults.KindLink, MeanUp: faults.Dur(2 * time.Minute), MeanDown: faults.Dur(10 * time.Second), MaxDown: faults.Dur(45 * time.Second)},
		{Kind: faults.KindLoss, Fraction: 0.05, Spread: 0.5},
		{Kind: faults.KindServerCrash, Target: "janus-server", MeanUp: faults.Dur(4 * time.Minute), MeanDown: faults.Dur(20 * time.Second), MaxDown: faults.Dur(60 * time.Second)},
		{Kind: faults.KindServerLatency, Target: "distill-server", MeanUp: faults.Dur(3 * time.Minute), MeanDown: faults.Dur(30 * time.Second), Factor: 3},
	}}},
	// The stress arm: frequent outages (~20% of wall time), heavy loss,
	// recurring crashes and slowdowns on every server dependency.
	{name: "severe", plan: &faults.PlanSpec{Name: "severe", Injectors: []faults.InjectorSpec{
		{Kind: faults.KindLink, MeanUp: faults.Dur(time.Minute), MeanDown: faults.Dur(15 * time.Second), MaxDown: faults.Dur(60 * time.Second)},
		{Kind: faults.KindLoss, Fraction: 0.10, Spread: 0.5},
		{Kind: faults.KindServerCrash, Target: "janus-server", MeanUp: faults.Dur(2 * time.Minute), MeanDown: faults.Dur(30 * time.Second), MaxDown: faults.Dur(60 * time.Second)},
		{Kind: faults.KindServerCrash, Target: "distill-server", MeanUp: faults.Dur(3 * time.Minute), MeanDown: faults.Dur(30 * time.Second), MaxDown: faults.Dur(60 * time.Second)},
		{Kind: faults.KindServerLatency, Target: "distill-server", MeanUp: faults.Dur(2 * time.Minute), MeanDown: faults.Dur(45 * time.Second), Factor: 5},
	}}},
}

// ResilienceSeverities lists the fault ladder's rung names, benign first.
var ResilienceSeverities = rungNames(resilienceLadder)

// ResiliencePlan returns the named rung's fault plan for a run seeded seed
// (nil for "none"); unknown names report ok=false.
func ResiliencePlan(name string, seed int64) (*faults.PlanSpec, bool) {
	r, ok := findRung(resilienceLadder, name)
	return r.seeded(FaultPlanSeed(seed)), ok
}

// resilienceGoal is the Fig-19 goal-directed scenario the fault ladder runs
// under: the harder 26-minute goal on the Figure 20 supply, which forces
// sustained low-fidelity operation and so leaves the least slack for
// fault-induced waste (measured mid-plan residuals stay under 1.1% of the
// supply; the easier goals leave 3-5% because retry-demand spikes push the
// monitor into conservative degradation it only slowly unwinds).
const resilienceGoal = 26 * time.Minute

// RunResilienceTrial runs the Fig-19 scenario under the named fault plan.
func RunResilienceTrial(severity string, seed int64) GoalResult {
	plan, ok := ResiliencePlan(severity, seed)
	if !ok {
		//odylint:allow panicfree experiment misconfiguration; caller passes a known severity
		panic(fmt.Sprintf("experiment: unknown fault severity %q", severity))
	}
	return runPlanned(GoalOptions{
		Seed:          seed,
		InitialEnergy: Figure20InitialEnergy,
		Goal:          resilienceGoal,
	}, plan, nil)
}

// resilience is the fault ladder as a figure: trial t of rung a runs on
// seed 2500+a*31+t.
var resilience = ladder{"resilience", ResilienceSeverities, func(a, t int) GoalResult {
	return RunResilienceTrial(ResilienceSeverities[a], int64(2500+a*31+t))
}}

// FigureResilience runs the fault-severity ladder on the Fig-19 scenario,
// trials runs per severity, and summarises the pass's runs.
func (p *Pass) FigureResilience(trials int) *Arms {
	rs := p.rungRuns(resilience, trials, ResilienceSeverities...)
	return summarize(fmt.Sprintf("Resilience: %d-minute goal under escalating fault plans (supply %.0f J)",
		int(resilienceGoal.Minutes()), Figure20InitialEnergy),
		[]string{"Plan"}, []column{
			residualCol,
			totalAdaptsCol("Adapts"),
			per("Retry (J)", func(r GoalResult) float64 { return r.RetryEnergy }),
			per("Retries", func(r GoalResult) float64 { return float64(r.RetryAttempts) }),
			per("Aborts", func(r GoalResult) float64 { return float64(r.DeadlineAborts) }),
			per("Speech fallback", func(r GoalResult) float64 { return float64(r.Fallbacks) }),
			per("Web detour", func(r GoalResult) float64 { return float64(r.Bypasses + r.CacheHits) }),
			per("Chunks lost", func(r GoalResult) float64 { return float64(r.ChunksLost) }),
			faultEventsCol,
		}, rs, func(a int) []string { return []string{ResilienceSeverities[a]} })
}
