package experiment

import (
	"time"

	"odyssey/internal/core"
)

// Ablations runs the goal-directed engine with each design choice removed
// in turn (DESIGN.md lists the choices), at the hardest (26-minute) goal.
// The adaptation counts and residuals show what each mechanism buys:
// hysteresis and the upgrade cap suppress fidelity flapping, the
// time-scaled half-life trades early stability for late agility, and
// priorities protect the applications the user cares about (that last
// effect is visible in per-app counts, summarized here as totals).
func Ablations(trials int) *Arms {
	goal := 26 * time.Minute

	variants := []struct {
		name string
		cfg  func() core.EnergyConfig
		eq   bool
	}{
		{name: "paper configuration", cfg: core.DefaultEnergyConfig},
		{name: "fixed alpha (no time-scaled half-life)", cfg: func() core.EnergyConfig {
			c := core.DefaultEnergyConfig()
			// Equivalent to a constant ~35 s half-life at the 100 ms
			// sample period.
			c.FixedAlpha = 0.998
			return c
		}},
		{name: "no hysteresis", cfg: func() core.EnergyConfig {
			c := core.DefaultEnergyConfig()
			c.HystResidualFraction = 0
			c.HystInitialFraction = 0
			return c
		}},
		{name: "uncapped upgrades", cfg: func() core.EnergyConfig {
			c := core.DefaultEnergyConfig()
			c.UpgradeInterval = 0
			return c
		}},
		{name: "equal priorities", cfg: core.DefaultEnergyConfig, eq: true},
	}

	rs := sweep(len(variants), trials, func(a, t int) GoalResult {
		return RunGoal(GoalOptions{
			Seed:          int64(2600 + a*31 + t),
			InitialEnergy: Figure20InitialEnergy,
			Goal:          goal,
			Config:        variants[a].cfg(),
			EqualPriority: variants[a].eq,
		})
	})
	return summarize("Ablations of the goal-directed engine (26-minute goal)",
		[]string{"Variant"}, []column{residualCol, totalAdaptsCol("Total adaptations")}, rs,
		func(a int) []string { return []string{variants[a].name} })
}
