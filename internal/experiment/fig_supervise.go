package experiment

import (
	"fmt"
	"time"

	"odyssey/internal/faults"
	"odyssey/internal/workload"
)

// MisbehaveBuilder constructs one trial's application-misbehavior plan
// against its freshly built applications.
type MisbehaveBuilder func(apps *workload.Apps, seed int64) *faults.Plan

// MisbehaveSeverities lists the escalating misbehavior ladders, benign
// first. "none" arms the supervisor over a well-behaved workload (the
// overhead arm); "mid" is the acceptance bar: the speech recognizer
// crash-loops until its retry budget is spent and it is quarantined, while
// the survivors absorb hangs, thrash, and consumption lies and the
// battery-duration goal is still met.
var MisbehaveSeverities = []string{"none", "mild", "mid", "severe"}

// MisbehavePlanByName returns the misbehavior builder for a severity name.
// The builder for "none" returns nil (no misbehavior); unknown names report
// ok=false.
func MisbehavePlanByName(name string) (b MisbehaveBuilder, ok bool) {
	switch name {
	case "none":
		return func(*workload.Apps, int64) *faults.Plan { return nil }, true
	case "mild":
		return misMildPlan, true
	case "mid":
		return misMidPlan, true
	case "severe":
		return misSeverePlan, true
	}
	return nil, false
}

// misSeed decorrelates misbehavior timing from both the workload's kernel
// stream and the network fault plane's (which uses +97).
func misSeed(seed int64) int64 { return seed*2654435761 + 211 }

// misMildPlan: occasional hang windows on the map viewer and rare defiant
// re-raises from the browser — misbehavior the restart path absorbs without
// ever exhausting a retry budget.
func misMildPlan(apps *workload.Apps, seed int64) *faults.Plan {
	pl := faults.NewPlan(apps.Rig.K, "mild-misbehave", misSeed(seed))
	pl.Add(
		&faults.AppHang{App: apps.Map, Health: &apps.Map.Health,
			MeanOK: 6 * time.Minute, MeanHang: 15 * time.Second, MaxHang: 30 * time.Second},
		&faults.AppThrash{App: apps.Web, Health: &apps.Web.Health,
			MeanCalm: 10 * time.Minute, MeanThrash: 30 * time.Second},
	)
	return pl
}

// misMidPlan is the acceptance-bar ladder: the speech recognizer
// crash-loops with a ~2-minute mean uptime — enough deaths in a 26-minute
// run to exhaust its restart budget and force quarantine — while the map
// viewer hangs, the browser defies degradation, and the video player opens
// windows in which it streams two tracks above its reported level, at rates
// the restart path contains without a second quarantine.
func misMidPlan(apps *workload.Apps, seed int64) *faults.Plan {
	pl := faults.NewPlan(apps.Rig.K, "mid-misbehave", misSeed(seed))
	pl.Add(
		&faults.AppCrash{App: apps.Speech, Health: &apps.Speech.Health,
			MeanUp: 2 * time.Minute},
		&faults.AppHang{App: apps.Map, Health: &apps.Map.Health,
			MeanOK: 5 * time.Minute, MeanHang: 20 * time.Second, MaxHang: 45 * time.Second},
		&faults.AppThrash{App: apps.Web, Health: &apps.Web.Health,
			MeanCalm: 9 * time.Minute, MeanThrash: 40 * time.Second},
		&faults.AppLie{App: apps.Video, Health: &apps.Video.Health,
			MeanOK: 15 * time.Minute, MeanLie: 40 * time.Second, Delta: 2},
	)
	return pl
}

// misSeverePlan: the stress arm — fast crash-loops, long hangs, frequent
// thrash, and large consumption lies on every front at once.
func misSeverePlan(apps *workload.Apps, seed int64) *faults.Plan {
	pl := faults.NewPlan(apps.Rig.K, "severe-misbehave", misSeed(seed))
	pl.Add(
		&faults.AppCrash{App: apps.Speech, Health: &apps.Speech.Health,
			MeanUp: 2 * time.Minute},
		&faults.AppHang{App: apps.Map, Health: &apps.Map.Health,
			MeanOK: 3 * time.Minute, MeanHang: 30 * time.Second, MaxHang: 60 * time.Second},
		&faults.AppThrash{App: apps.Web, Health: &apps.Web.Health,
			MeanCalm: 3 * time.Minute, MeanThrash: 60 * time.Second, Period: time.Second},
		&faults.AppLie{App: apps.Video, Health: &apps.Video.Health,
			MeanOK: 3 * time.Minute, MeanLie: 60 * time.Second, Delta: 3},
	)
	return pl
}

// supervisionGoal reuses the resilience scenario: the hard 26-minute goal
// on the Figure 20 supply, where a misbehaving application that escapes
// containment has the least slack to hide in.
const supervisionGoal = resilienceGoal

// RunSupervisionTrial runs the goal scenario with the supervisor armed
// under the named misbehavior ladder.
func RunSupervisionTrial(severity string, seed int64) GoalResult {
	builder, ok := MisbehavePlanByName(severity)
	if !ok {
		//odylint:allow panicfree experiment misconfiguration; caller passes a known severity
		panic(fmt.Sprintf("experiment: unknown misbehavior severity %q", severity))
	}
	return RunGoal(GoalOptions{
		Seed:          seed,
		InitialEnergy: Figure20InitialEnergy,
		Goal:          supervisionGoal,
		Supervise:     true,
		Misbehave:     builder,
	})
}

// FigureSupervision runs the misbehavior ladder on the goal scenario with
// the supervisor armed, trials runs per severity.
func FigureSupervision(trials int) *Arms {
	rs := sweep(len(MisbehaveSeverities), trials, func(a, t int) GoalResult {
		return RunSupervisionTrial(MisbehaveSeverities[a], int64(2600+a*31+t))
	})
	return summarize(fmt.Sprintf("Supervision: %d-minute goal under escalating application misbehavior (supply %.0f J, supervisor armed)",
		int(supervisionGoal.Minutes()), Figure20InitialEnergy),
		[]string{"Plan"}, []column{
			residualCol,
			per("Supervise (J)", func(r GoalResult) float64 { return r.SuperviseEnergy }),
			per("Missed acks", func(r GoalResult) float64 { return float64(r.MissedAcks) }),
			per("Restarts", func(r GoalResult) float64 { return float64(r.Restarts) }),
			per("Quarantined", func(r GoalResult) float64 { return float64(len(r.Quarantined)) }),
			per("Strikes", func(r GoalResult) float64 {
				total := 0
				for _, n := range r.Strikes {
					total += n
				}
				return float64(total)
			}),
			faultEventsCol,
		}, rs, func(a int) []string { return []string{MisbehaveSeverities[a]} })
}
