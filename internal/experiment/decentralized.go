package experiment

import (
	"fmt"
	"sort"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/power"
	"odyssey/internal/stats"
	"odyssey/internal/workload"
)

// The paper argues for a *collaborative* design: the operating system
// predicts demand against supply and directs adaptation centrally. The
// obvious alternative — publish residual energy as a plain resource and let
// each application self-degrade at fixed thresholds through the expectation
// API — needs no demand prediction, no priorities and no hysteresis. This
// experiment quantifies what that simplicity costs: without demand
// prediction the thresholds cannot know whether the current drain will miss
// or beat the goal, so the decentralized policy both misses tight goals and
// wastes fidelity on loose ones.

// EnergyResource is the viceroy resource name the decentralized policy
// publishes residual energy under.
const EnergyResource = "energy"

// DecentralizedComparison runs both policies at a loose goal (20 min) and a
// tight one (26 min), trials seeds each.
func DecentralizedComparison(trials int) *Arms {
	type arm struct {
		policy        string
		goal          time.Duration
		decentralized bool
	}
	var arms []arm
	for _, goal := range []time.Duration{20 * time.Minute, 26 * time.Minute} {
		arms = append(arms, arm{"centralized (paper)", goal, false}, arm{"decentralized thresholds", goal, true})
	}
	rs := sweep(len(arms), trials, func(a, t int) GoalResult {
		seed := int64(3000 + t)
		if arms[a].decentralized {
			return runDecentralizedTrial(seed, arms[a].goal)
		}
		return RunGoal(GoalOptions{Seed: seed, InitialEnergy: Figure20InitialEnergy, Goal: arms[a].goal})
	})
	return summarize("Extension: centralized goal-directed control vs decentralized energy thresholds",
		[]string{"Policy", "Goal"}, []column{residualCol, meanFidelityCol}, rs, func(a int) []string {
			return []string{arms[a].policy, fmt.Sprintf("%dm", int(arms[a].goal.Minutes()))}
		})
}

// meanFidelityCol averages the time-mean normalized fidelity across the
// four applications and an arm's trials.
var meanFidelityCol = column{
	name: "Mean fidelity",
	reduce: func(rs []GoalResult) stats.Summary {
		sum := 0.0
		for _, r := range rs {
			// Sum in sorted-app order: float addition does not commute
			// under rounding, and map order must not leak into the figure.
			apps := make([]string, 0, len(r.MeanFidelity))
			for app := range r.MeanFidelity {
				apps = append(apps, app)
			}
			sort.Strings(apps)
			for _, app := range apps {
				sum += r.MeanFidelity[app]
			}
		}
		return stats.Summary{N: len(rs), Mean: sum / float64(len(rs)*4)}
	},
	format: func(s stats.Summary) string { return fmt.Sprintf("%.2f", s.Mean) },
}

// runDecentralizedTrial drives the workload with residual energy published
// as a viceroy resource and each application self-degrading one level each
// time the residual crosses 75%, 50% and 25% of the initial supply.
func runDecentralizedTrial(seed int64, goal time.Duration) GoalResult {
	rig := env.NewRig(seed, 1)
	rig.EnablePowerMgmt()
	apps := workload.NewApps(rig)
	regs := apps.Register()
	apps.SetAllHighest()
	supply := power.NewSupply(rig.M.Acct, Figure20InitialEnergy)

	mon := rig.V.MonitorResource(EnergyResource, 500*time.Millisecond, supply.Residual)
	mon.Start()

	// Self-adaptation: every application independently watches the energy
	// resource through the expectation API.
	thresholds := []float64{0.75, 0.50, 0.25}
	for _, reg := range regs {
		reg := reg
		var watch func(level int)
		watch = func(ti int) {
			if ti >= len(thresholds) {
				return
			}
			low := thresholds[ti] * Figure20InitialEnergy
			_, err := rig.V.Request(EnergyResource, low, 1e18, func(float64) {
				reg.App.SetLevel(reg.App.Level() - 1)
				reg.Adaptations++
				watch(ti + 1)
			})
			if err != nil {
				//odylint:allow panicfree failure inside an async upcall has no caller to return to; registration is a setup bug
				panic(err)
			}
		}
		watch(0)
	}

	res := GoalResult{Goal: goal, Adaptations: make(map[string]int)}
	avg := newFidelityAverager(regs)
	sampler := rig.K.Every(500*time.Millisecond, func() { avg.observe(rig.K.Now()) })
	sampler.Start()

	done := false
	finish := func(metNow bool) {
		if done {
			return
		}
		done = true
		res.Met = metNow
		res.Residual = supply.Residual()
		res.EndTime = rig.K.Now()
		mon.Stop()
		sampler.Stop()
		rig.K.Stop()
	}
	var watchEnd func()
	watchEnd = func() {
		if supply.Depleted() {
			finish(rig.K.Now() >= goal)
			return
		}
		if rig.K.Now() >= goal {
			finish(true)
			return
		}
		rig.K.After(250*time.Millisecond, watchEnd)
	}
	rig.K.After(250*time.Millisecond, watchEnd)

	apps.StartGoalWorkload(compositePeriod, func() bool { return done })
	rig.K.Run(goal + time.Hour)
	if !done {
		finish(rig.K.Now() >= goal)
	}
	avg.observe(res.EndTime)
	res.MeanFidelity = avg.means()
	for _, r := range regs {
		res.Adaptations[r.App.Name()] = r.Adaptations
	}
	return res
}
