package experiment

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/faults"
	"odyssey/internal/smartbattery"
)

// PlanBuilder constructs one trial's fault plan against its freshly built
// rig. bat is non-nil only when the trial reads a SmartBattery.
type PlanBuilder func(rig *env.Rig, bat *smartbattery.Battery, seed int64) *faults.Plan

// ResilienceSeverities lists the escalating fault plans, benign first. The
// "mid" plan is the acceptance bar: outages bounded to ~8% of wall time
// (mean 10 s down per ~2:10 cycle, single outage capped at 45 s) and
// server crash windows capped at 60 s.
var ResilienceSeverities = []string{"none", "mild", "mid", "severe"}

// ResiliencePlanByName returns the plan builder for a severity name. The
// builder for "none" returns nil (clean run); unknown names report ok=false.
func ResiliencePlanByName(name string) (b PlanBuilder, ok bool) {
	switch name {
	case "none":
		return func(*env.Rig, *smartbattery.Battery, int64) *faults.Plan { return nil }, true
	case "mild":
		return mildPlan, true
	case "mid":
		return midPlan, true
	case "severe":
		return severePlan, true
	}
	return nil, false
}

// planSeed decorrelates fault timing from the workload's kernel stream.
func planSeed(seed int64) int64 { return seed*2654435761 + 97 }

// mildPlan: brief rare outages and light byte loss — the failure level a
// well-covered campus network shows.
func mildPlan(rig *env.Rig, _ *smartbattery.Battery, seed int64) *faults.Plan {
	pl := faults.NewPlan(rig.K, "mild", planSeed(seed))
	pl.Add(
		&faults.LinkOutage{Net: rig.Net, MeanUp: 5 * time.Minute, MeanDown: 5 * time.Second, MaxDown: 20 * time.Second},
		&faults.ByteLoss{Net: rig.Net, Fraction: 0.02, Spread: 0.5},
	)
	return pl
}

// midPlan is the acceptance-bar plan: outages well under 10% of wall time,
// crash windows capped at 60 s, plus loss, a distill-server slowdown, and
// battery readout dropouts when a SmartBattery is present.
func midPlan(rig *env.Rig, bat *smartbattery.Battery, seed int64) *faults.Plan {
	pl := faults.NewPlan(rig.K, "mid", planSeed(seed))
	pl.Add(
		&faults.LinkOutage{Net: rig.Net, MeanUp: 2 * time.Minute, MeanDown: 10 * time.Second, MaxDown: 45 * time.Second},
		&faults.ByteLoss{Net: rig.Net, Fraction: 0.05, Spread: 0.5},
		&faults.ServerCrash{Server: rig.JanusServer, MeanUp: 4 * time.Minute, MeanDown: 20 * time.Second, MaxDown: 60 * time.Second},
		&faults.ServerLatency{Server: rig.WebServer, MeanCalm: 3 * time.Minute, MeanSpike: 30 * time.Second, Factor: 3},
	)
	if bat != nil {
		pl.Add(&faults.BatteryDropout{Bat: bat, MeanUp: 3 * time.Minute, MeanDown: 10 * time.Second})
	}
	return pl
}

// severePlan: the stress arm — frequent outages (~20% of wall time), heavy
// loss, recurring crashes and slowdowns on every server dependency.
func severePlan(rig *env.Rig, bat *smartbattery.Battery, seed int64) *faults.Plan {
	pl := faults.NewPlan(rig.K, "severe", planSeed(seed))
	pl.Add(
		&faults.LinkOutage{Net: rig.Net, MeanUp: time.Minute, MeanDown: 15 * time.Second, MaxDown: 60 * time.Second},
		&faults.ByteLoss{Net: rig.Net, Fraction: 0.10, Spread: 0.5},
		&faults.ServerCrash{Server: rig.JanusServer, MeanUp: 2 * time.Minute, MeanDown: 30 * time.Second, MaxDown: 60 * time.Second},
		&faults.ServerCrash{Server: rig.WebServer, MeanUp: 3 * time.Minute, MeanDown: 30 * time.Second, MaxDown: 60 * time.Second},
		&faults.ServerLatency{Server: rig.WebServer, MeanCalm: 2 * time.Minute, MeanSpike: 45 * time.Second, Factor: 5},
	)
	if bat != nil {
		pl.Add(&faults.BatteryDropout{Bat: bat, MeanUp: 2 * time.Minute, MeanDown: 20 * time.Second})
	}
	return pl
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
	builder, ok := ResiliencePlanByName(severity)
	if !ok {
		//odylint:allow panicfree experiment misconfiguration; caller passes a known severity
		panic(fmt.Sprintf("experiment: unknown fault severity %q", severity))
	}
	return RunGoal(GoalOptions{
		Seed:          seed,
		InitialEnergy: Figure20InitialEnergy,
		Goal:          resilienceGoal,
		Faults:        builder,
	})
}

// FigureResilience runs the fault-severity ladder on the Fig-19 scenario,
// trials runs per severity.
func FigureResilience(trials int) *Arms {
	rs := sweep(len(ResilienceSeverities), trials, func(a, t int) GoalResult {
		return RunResilienceTrial(ResilienceSeverities[a], int64(2500+a*31+t))
	})
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
