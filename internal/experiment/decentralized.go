package experiment

import (
	"fmt"
	"sort"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/core"
	"odyssey/internal/stats"
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
		policy  string
		goal    time.Duration
		control Control
	}
	var arms []arm
	for _, goal := range []time.Duration{20 * time.Minute, 26 * time.Minute} {
		arms = append(arms, arm{"centralized (paper)", goal, Directed}, arm{"decentralized thresholds", goal, Thresholds})
	}
	rs := sweep(len(arms), trials, func(a, t int) GoalResult {
		return RunGoal(GoalOptions{Seed: int64(3000 + t), InitialEnergy: Figure20InitialEnergy,
			Goal: arms[a].goal, Control: arms[a].control})
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

// startThresholds installs the Thresholds controller on rig. It publishes
// residual energy as EnergyResource every 500 ms, and each registered
// application degrades itself one level each time the residual crosses 75%,
// 50% and 25% of initial. The energy monitor never runs, so its evaluations
// cannot feed avg as they do under Directed; a 500 ms sampler does instead.
// It returns the function that stops the publisher and the sampler.
func startThresholds(rig *env.Rig, regs []*core.Registration, initial float64, residual func() float64, avg *fidelityAverager) (stop func()) {
	mon := rig.V.MonitorResource(EnergyResource, 500*time.Millisecond, residual)
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
			low := thresholds[ti] * initial
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

	sampler := rig.K.Every(500*time.Millisecond, func() { avg.observe(rig.K.Now()) })
	sampler.Start()
	return func() {
		mon.Stop()
		sampler.Stop()
	}
}
