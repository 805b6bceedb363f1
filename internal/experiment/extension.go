package experiment

import "time"

// MeasurementPaths compares the goal-directed engine across measurement
// paths at the 24-minute goal: the prototype's external multimeter (exact
// average power, exact residual) versus the SmartBattery path the paper
// proposes for deployment (quantized, rate-limited readings plus the
// monitoring circuit's overhead), and the same with a non-ideal
// (rate-dependent) battery — the confound the paper avoided by powering its
// client from a bench supply.
func MeasurementPaths(trials int) *Arms {
	goal := 24 * time.Minute
	variants := []struct {
		name    string
		smart   bool
		peukert float64
	}{
		{name: "external multimeter (prototype)"},
		{name: "SmartBattery readings", smart: true},
		{name: "SmartBattery + non-ideal pack (Peukert 1.08)", smart: true, peukert: 1.08},
	}
	rs := sweep(len(variants), trials, func(a, t int) GoalResult {
		return RunGoal(GoalOptions{
			Seed:          int64(2700 + a*13 + t),
			InitialEnergy: Figure20InitialEnergy,
			Goal:          goal,
			SmartBattery:  variants[a].smart,
			Peukert:       variants[a].peukert,
		})
	})
	return summarize("Extension: measurement paths for goal-directed adaptation (24-minute goal)",
		[]string{"Measurement path"}, []column{residualCol, totalAdaptsCol("Total adaptations")}, rs,
		func(a int) []string { return []string{variants[a].name} })
}
