package experiment

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/faults"
	"odyssey/internal/smartbattery"
	"odyssey/internal/stats"
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

// ResilienceRow aggregates trials for one severity.
type ResilienceRow struct {
	Severity       string
	MetPct         float64
	Residual       stats.Summary
	Adaptations    stats.Summary // total upcalls across the four apps
	RetryEnergy    stats.Summary // joules charged to net-retry
	RetryAttempts  stats.Summary
	DeadlineAborts stats.Summary
	Fallbacks      stats.Summary // speech remote/hybrid -> local
	WebDetours     stats.Summary // proxy bypasses + cache hits
	ChunksLost     stats.Summary
	FaultEvents    stats.Summary
}

// FigureResilience runs the fault-severity ladder on the Fig-19 scenario,
// trials runs per severity.
func FigureResilience(trials int) []ResilienceRow {
	rows := make([]ResilienceRow, 0, len(ResilienceSeverities))
	for si, sev := range ResilienceSeverities {
		row := ResilienceRow{Severity: sev}
		var (
			met                                       int
			residual, adapts, retryJ, retries, aborts []float64
			fallbacks, detours, lost, events          []float64
		)
		for t := 0; t < trials; t++ {
			r := RunResilienceTrial(sev, int64(2500+si*31+t))
			if r.Met {
				met++
			}
			total := 0
			for _, n := range r.Adaptations {
				total += n
			}
			residual = append(residual, r.Residual)
			adapts = append(adapts, float64(total))
			retryJ = append(retryJ, r.RetryEnergy)
			retries = append(retries, float64(r.RetryAttempts))
			aborts = append(aborts, float64(r.DeadlineAborts))
			fallbacks = append(fallbacks, float64(r.Fallbacks))
			detours = append(detours, float64(r.Bypasses+r.CacheHits))
			lost = append(lost, float64(r.ChunksLost))
			events = append(events, float64(r.FaultEvents))
		}
		row.MetPct = float64(met) / float64(trials) * 100
		row.Residual = stats.Summarize(residual)
		row.Adaptations = stats.Summarize(adapts)
		row.RetryEnergy = stats.Summarize(retryJ)
		row.RetryAttempts = stats.Summarize(retries)
		row.DeadlineAborts = stats.Summarize(aborts)
		row.Fallbacks = stats.Summarize(fallbacks)
		row.WebDetours = stats.Summarize(detours)
		row.ChunksLost = stats.Summarize(lost)
		row.FaultEvents = stats.Summarize(events)
		rows = append(rows, row)
	}
	return rows
}

// ResilienceTable renders the fault-ladder results.
func ResilienceTable(rows []ResilienceRow) *Table {
	t := &Table{
		Title: fmt.Sprintf("Resilience: %d-minute goal under escalating fault plans (supply %.0f J)",
			int(resilienceGoal.Minutes()), Figure20InitialEnergy),
		Columns: []string{"Plan", "Met", "Residual (J)", "Adapts", "Retry (J)", "Retries", "Aborts", "Speech fallback", "Web detour", "Chunks lost", "Fault events"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Severity,
			fmt.Sprintf("%.0f%%", r.MetPct),
			r.Residual.String(),
			r.Adaptations.String(),
			r.RetryEnergy.String(),
			r.RetryAttempts.String(),
			r.DeadlineAborts.String(),
			r.Fallbacks.String(),
			r.WebDetours.String(),
			r.ChunksLost.String(),
			r.FaultEvents.String(),
		})
	}
	return t
}
