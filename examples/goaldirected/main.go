// Goaldirected: the paper's Section 5 scenario end to end — four
// concurrent adaptive applications (background video, speech, map, web)
// under Odyssey's goal-directed energy adaptation, with a user-specified
// battery duration.
//
// Run it with:
//
//	go run ./examples/goaldirected
package main

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/core"
	"odyssey/internal/experiment"
	"odyssey/internal/power"
	"odyssey/internal/workload"
)

func main() {
	const initialEnergy = experiment.Figure20InitialEnergy
	goal := 24 * time.Minute

	rig := env.NewRig(3, 1)
	rig.EnablePowerMgmt()
	apps := workload.NewApps(rig)
	regs := apps.Register()
	apps.SetAllHighest()

	supply := power.NewSupply(rig.M.Acct, initialEnergy)
	monitor := core.NewEnergyMonitor(rig.V, rig.M.Acct, supply, core.DefaultEnergyConfig())
	monitor.SetGoal(goal)
	monitor.OnInfeasible = func() {
		fmt.Printf("[%6.0fs] Odyssey: goal infeasible even at lowest fidelity\n", rig.K.Now().Seconds())
	}
	monitor.Start()

	// Narrate fidelity changes at 1 s, then every three minutes.
	narrate := func() {
		fmt.Printf("[%6.0fs] residual %6.0f J, demand %6.0f J, levels:", rig.K.Now().Seconds(),
			supply.Residual(), monitor.PredictedDemand())
		for _, r := range regs {
			fmt.Printf(" %s=%s", r.App.Name(), r.App.Levels()[r.App.Level()])
		}
		fmt.Println()
	}
	narrator := rig.K.Every(3*time.Minute, narrate)
	rig.K.After(time.Second, func() {
		narrate()
		narrator.Start()
	})

	done := false
	rig.K.At(goal, func() {
		done = true
		fmt.Printf("[%6.0fs] goal reached with %.0f J to spare (%.1f%% of supply)\n",
			rig.K.Now().Seconds(), supply.Residual(), supply.Residual()/initialEnergy*100)
		monitor.Stop()
		rig.K.Stop()
	})
	apps.StartGoalWorkload(25*time.Second, func() bool { return done || supply.Depleted() })

	rig.K.Run(goal + time.Minute)
	if supply.Depleted() && !done {
		fmt.Printf("[%6.0fs] supply exhausted before the goal\n", rig.K.Now().Seconds())
	}
	fmt.Println("adaptations per application:")
	for _, r := range regs {
		fmt.Printf("  %-8s %d\n", r.App.Name(), r.Adaptations)
	}
}
