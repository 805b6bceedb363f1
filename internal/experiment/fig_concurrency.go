package experiment

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/app/video"
	"odyssey/internal/sim"
	"odyssey/internal/stats"
	"odyssey/internal/workload"
)

// ConcurrencyResult holds one case's pair of measurements.
type ConcurrencyResult struct {
	Label      string
	Alone      stats.Summary // composite in isolation (J)
	Concurrent stats.Summary // composite + background video (J)
}

// ExtraEnergyFraction reports how much more energy concurrent execution
// used: E(concurrent)/E(alone) - 1.
func (c ConcurrencyResult) ExtraEnergyFraction() float64 {
	return stats.Ratio(c.Concurrent.Mean, c.Alone.Mean) - 1
}

// compositeIterations matches the paper's six-iteration composite runs.
const compositeIterations = 6

// Figure15 compares the energy of the composite application executing in
// isolation against executing concurrently with the background video, for
// baseline, hardware-only power management, and lowest-fidelity cases (an
// arm's config says whether every application runs at its lowest
// fidelity).
func Figure15(trials int) []ConcurrencyResult {
	arms := hwAndLowestArms(false, true)
	// Sweep arm 2*ci is case ci alone and 2*ci+1 the same case with the
	// background video; both draw trial t from the same seed.
	rs := sweep(2*len(arms), trials, func(a, t int) float64 {
		ci, withVideo := a/2, a%2 == 1
		arm := arms[ci]
		var apps *workload.Apps
		done := false
		setup := func(rig *env.Rig) {
			if arm.Setup != nil {
				arm.Setup(rig)
			}
			apps = workload.NewApps(rig)
			if arm.Config {
				apps.SetAllLowest()
			}
			if withVideo {
				rig.K.Spawn("video-bg", func(p *sim.Proc) {
					clip := video.Clip{Name: "newsfeed", Length: 20 * time.Second}
					apps.VideoLoop(p, clip, func() bool { return done })
				})
			}
		}
		r := runTrial(int64(1500+ci*37+t), 1, setup, func(rig *env.Rig, p *sim.Proc) {
			apps.RunComposite(p, compositeIterations)
			done = true
		})
		// With the video, the whole run's energy counts, its tail chunk
		// included: the paper measures both applications on one client.
		if withVideo {
			return r.total
		}
		return r.energy
	})
	out := make([]ConcurrencyResult, 0, len(arms))
	for ci, arm := range arms {
		out = append(out, ConcurrencyResult{
			Label:      arm.Label,
			Alone:      stats.Summarize(rs[2*ci]),
			Concurrent: stats.Summarize(rs[2*ci+1]),
		})
	}
	return out
}

// ConcurrencyTable renders Figure 15's results.
func ConcurrencyTable(rs []ConcurrencyResult) *Table {
	t := &Table{
		Title:   "Figure 15: effect of concurrent applications (composite alone vs with background video)",
		Columns: []string{"Case", "Alone (J)", "Concurrent (J)", "Extra energy"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Label,
			r.Alone.String(),
			r.Concurrent.String(),
			fmt.Sprintf("+%.0f%%", r.ExtraEnergyFraction()*100),
		})
	}
	return t
}
