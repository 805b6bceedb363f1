// Quickstart: the smallest complete energy-aware application.
//
// It builds the simulated mobile computer, defines a toy adaptive
// application with three fidelity levels, registers it with Odyssey, and
// asks for a battery-duration goal the application can only meet by
// degrading. Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/core"
	"odyssey/internal/power"
	"odyssey/internal/sim"
)

// renderer is a toy adaptive application: it "renders" frames continuously,
// spending more CPU at higher fidelity. Its embedded fidelity ladder holds
// the CPU one frame costs at each level, lowest first, and supplies the
// Levels, Level and SetLevel half of core.Adaptive.
type renderer struct {
	env.Fidelity[float64]
}

func (r *renderer) Name() string { return "renderer" }

// styles names each level by the CPU one of its frames costs.
var styles = map[float64]string{0.05: "wireframe", 0.25: "shaded", 0.60: "ray-traced"}

func main() {
	// 1. Build the testbed: a ThinkPad-560X-class machine with hardware
	// power management enabled.
	rig := env.NewRig(1, 1)
	rig.EnablePowerMgmt()

	// 2. Attach an energy supply and the Odyssey energy monitor.
	supply := power.NewSupply(rig.M.Acct, 6500) // 6.5 kJ
	monitor := core.NewEnergyMonitor(rig.V, rig.M.Acct, supply, core.DefaultEnergyConfig())

	// 3. Register the application with a priority and set the goal.
	app := &renderer{env.NewFidelity([]float64{0.05, 0.25, 0.60},
		func(cpu float64) string { return styles[cpu] })}
	rig.V.RegisterApp(app, 1)
	goal := 10 * time.Minute
	monitor.SetGoal(goal)
	monitor.Start()

	// 4. Run the application: one frame per second, at whatever fidelity
	// Odyssey directs.
	rig.K.Spawn("renderer", func(p *sim.Proc) {
		for p.Now() < goal && !supply.Depleted() {
			start := p.Now()
			rig.M.CPU.Run(p, "renderer", app.Operating())
			p.SleepUntil(start + time.Second)
		}
	})
	var survived bool
	var residualAtGoal float64
	rig.K.At(goal, func() {
		survived = !supply.Depleted()
		residualAtGoal = supply.Residual()
		monitor.Stop()
		rig.K.Stop()
	})
	rig.K.Run(goal + time.Minute)

	// 5. Report.
	fmt.Printf("Goal: %v with %.0f J\n", goal, supply.Initial())
	fmt.Printf("Survived: %v (residual %.0f J at the goal)\n", survived, residualAtGoal)
	fmt.Printf("Final fidelity: %s (level %d of %d)\n",
		app.Levels()[app.Level()], app.Level(), len(app.Levels())-1)
	fmt.Printf("Smoothed power estimate: %.2f W\n", monitor.SmoothedPower())
	fmt.Printf("Adaptation upcalls: %d degrades, %d upgrades\n", monitor.Degrades(), monitor.Upgrades())
}
