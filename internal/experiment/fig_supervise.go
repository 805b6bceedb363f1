package experiment

import (
	"fmt"
	"time"

	"odyssey/internal/faults"
)

// misbehaveLadder is the escalating misbehavior ladder, benign first, and
// the single source of its rung names and plans. "none" arms the
// supervisor over a well-behaved workload (the overhead arm); "mid" is the
// acceptance bar: the speech recognizer crash-loops until its retry budget
// is spent and it is quarantined, while the survivors absorb hangs,
// thrash, and consumption lies and the battery-duration goal is still met.
var misbehaveLadder = []rung{
	{name: "none"},
	// Occasional hang windows on the map viewer and rare defiant re-raises
	// from the browser: misbehavior the restart path absorbs without ever
	// exhausting a retry budget.
	{name: "mild", plan: &faults.PlanSpec{Name: "mild-misbehave", Injectors: []faults.InjectorSpec{
		{Kind: faults.KindAppHang, Target: "map", MeanUp: faults.Dur(6 * time.Minute), MeanDown: faults.Dur(15 * time.Second), MaxDown: faults.Dur(30 * time.Second)},
		{Kind: faults.KindAppThrash, Target: "web", MeanUp: faults.Dur(10 * time.Minute), MeanDown: faults.Dur(30 * time.Second)},
	}}},
	// The acceptance bar: speech crash-loops with a ~2-minute mean uptime,
	// enough deaths in a 26-minute run to exhaust its restart budget and
	// force quarantine, while the map viewer hangs, the browser defies
	// degradation, and the video player opens windows in which it streams
	// two tracks above its reported level, at rates the restart path
	// contains without a second quarantine.
	{name: "mid", plan: &faults.PlanSpec{Name: "mid-misbehave", Injectors: []faults.InjectorSpec{
		{Kind: faults.KindAppCrash, Target: "speech", MeanUp: faults.Dur(2 * time.Minute)},
		{Kind: faults.KindAppHang, Target: "map", MeanUp: faults.Dur(5 * time.Minute), MeanDown: faults.Dur(20 * time.Second), MaxDown: faults.Dur(45 * time.Second)},
		{Kind: faults.KindAppThrash, Target: "web", MeanUp: faults.Dur(9 * time.Minute), MeanDown: faults.Dur(40 * time.Second)},
		{Kind: faults.KindAppLie, Target: "video", MeanUp: faults.Dur(15 * time.Minute), MeanDown: faults.Dur(40 * time.Second), Delta: 2},
	}}},
	// The stress arm: fast crash-loops, long hangs, frequent thrash, and
	// large consumption lies on every front at once.
	{name: "severe", plan: &faults.PlanSpec{Name: "severe-misbehave", Injectors: []faults.InjectorSpec{
		{Kind: faults.KindAppCrash, Target: "speech", MeanUp: faults.Dur(2 * time.Minute)},
		{Kind: faults.KindAppHang, Target: "map", MeanUp: faults.Dur(3 * time.Minute), MeanDown: faults.Dur(30 * time.Second), MaxDown: faults.Dur(60 * time.Second)},
		{Kind: faults.KindAppThrash, Target: "web", MeanUp: faults.Dur(3 * time.Minute), MeanDown: faults.Dur(60 * time.Second), Period: faults.Dur(time.Second)},
		{Kind: faults.KindAppLie, Target: "video", MeanUp: faults.Dur(3 * time.Minute), MeanDown: faults.Dur(60 * time.Second), Delta: 3},
	}}},
}

// MisbehaveSeverities lists the misbehavior ladder's rung names, benign
// first.
var MisbehaveSeverities = rungNames(misbehaveLadder)

// MisbehavePlan returns the named rung's misbehavior plan for a run seeded
// seed (nil for "none"); unknown names report ok=false.
func MisbehavePlan(name string, seed int64) (*faults.PlanSpec, bool) {
	r, ok := findRung(misbehaveLadder, name)
	return r.seeded(MisbehavePlanSeed(seed)), ok
}

// supervisionGoal reuses the resilience scenario: the hard 26-minute goal
// on the Figure 20 supply, where a misbehaving application that escapes
// containment has the least slack to hide in.
const supervisionGoal = resilienceGoal

// RunSupervisionTrial runs the goal scenario with the supervisor armed
// under the named misbehavior ladder.
func RunSupervisionTrial(severity string, seed int64) GoalResult {
	plan, ok := MisbehavePlan(severity, seed)
	if !ok {
		//odylint:allow panicfree experiment misconfiguration; caller passes a known severity
		panic(fmt.Sprintf("experiment: unknown misbehavior severity %q", severity))
	}
	return runPlanned(GoalOptions{
		Seed:          seed,
		InitialEnergy: Figure20InitialEnergy,
		Goal:          supervisionGoal,
		Supervise:     true,
	}, nil, plan)
}

// supervision is the misbehavior ladder as a figure: trial t of rung a runs
// on seed 2600+a*31+t.
var supervision = ladder{"supervision", MisbehaveSeverities, func(a, t int) GoalResult {
	return RunSupervisionTrial(MisbehaveSeverities[a], int64(2600+a*31+t))
}}

// FigureSupervision runs the misbehavior ladder on the goal scenario with
// the supervisor armed, trials runs per severity, and summarises the pass's
// runs.
func (p *Pass) FigureSupervision(trials int) *Arms {
	rs := p.rungRuns(supervision, trials, MisbehaveSeverities...)
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
