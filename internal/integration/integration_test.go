// Package integration_test is the capstone cross-module scenario: a full
// "day in the life" of the simulated mobile computer, exercising the
// bursty multi-application workload, a varying-quality wireless link,
// bandwidth adaptation, SmartBattery-driven goal-directed energy
// adaptation, and the event log — all at once.
package integration_test

import (
	"testing"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/core"
	"odyssey/internal/netsim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/trace"
	"odyssey/internal/workload"
)

func TestFullStackScenario(t *testing.T) {
	const initialJ = 60_000.0
	goal := 70 * time.Minute

	rig := env.NewRig(77, 1)
	rig.EnablePowerMgmt()

	// Varying-quality wireless channel.
	quality := netsim.NewLinkQuality(rig.Net, 0.3, 4*time.Minute, time.Minute)
	quality.Start()
	rig.StartBandwidthMonitor(2 * time.Second)

	// The four paper applications on a bursty schedule, plus bandwidth
	// adaptation for the video player.
	apps := workload.NewApps(rig)
	regs := apps.Register()
	apps.SetAllHighest()
	if err := apps.Video.EnableBandwidthAdaptation(env.BandwidthResource); err != nil {
		t.Fatal(err)
	}

	// SmartBattery measurement path driving the goal-directed monitor,
	// with an event log capturing its decisions.
	bat := smartbattery.New(rig.K, rig.M.Acct, 1, initialJ)
	bat.SetPolling(true)
	em := core.NewEnergyMonitorSource(rig.V, smartbattery.Source{B: bat}, core.DefaultEnergyConfig())
	em.SetGoal(goal)
	log := trace.NewLog(rig.K.Now, 1<<14)
	em.Events = log
	em.Start()

	done := false
	var survived bool
	rig.K.At(goal, func() {
		done = true
		survived = !bat.Depleted()
		em.Stop()
		quality.Stop()
		rig.K.Stop()
	})
	apps.StartBurstyWorkload(func() bool { return done || bat.Depleted() })

	rig.K.Run(goal + time.Hour)

	if !survived {
		t.Fatalf("battery died before the goal (residual %.0f J at %v)", bat.TrueResidual(), rig.K.Now())
	}
	if frac := bat.TrueResidual() / initialJ; frac > 0.25 {
		t.Errorf("residual %.0f%% of the pack; adaptation left too much on the table", frac*100)
	}
	// Every subsystem left fingerprints.
	if quality.Transitions() < 3 {
		t.Errorf("link quality transitioned only %d times in 70 min", quality.Transitions())
	}
	adapts := log.Filter(trace.CatAdapt, "")
	if len(adapts) == 0 {
		t.Error("no adaptation events logged")
	}
	total := 0
	for _, r := range regs {
		total += r.Adaptations
	}
	if total == 0 {
		t.Error("monitor directed no adaptations despite the tight goal")
	}
	byP := rig.M.Acct.EnergyByPrincipal()
	for _, principal := range []string{"xanim", "janus", "anvil", "netscape", "Idle", netsim.PrincipalInterrupts} {
		if byP[principal] <= 0 {
			t.Errorf("no energy attributed to %s", principal)
		}
	}
	byC := rig.M.Acct.EnergyByComponent()
	if byC["smartbattery"] <= 0 {
		t.Error("SmartBattery polling overhead not billed")
	}
	// Conservation across the whole run.
	sum := 0.0
	for _, v := range byP {
		sum += v
	}
	totalE := rig.M.Acct.TotalEnergy()
	if rel := (sum - totalE) / totalE; rel > 1e-6 || rel < -1e-6 {
		t.Errorf("principal energies %.1f != total %.1f", sum, totalE)
	}
}

func TestFullStackDeterminism(t *testing.T) {
	run := func() float64 {
		rig := env.NewRig(99, 1)
		rig.EnablePowerMgmt()
		quality := netsim.NewLinkQuality(rig.Net, 0.3, time.Minute, 30*time.Second)
		quality.Start()
		apps := workload.NewApps(rig)
		apps.Register()
		done := false
		rig.K.At(10*time.Minute, func() { done = true; quality.Stop(); rig.K.Stop() })
		apps.StartBurstyWorkload(func() bool { return done })
		rig.K.Run(0)
		return rig.M.Acct.TotalEnergy()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("full-stack scenario not deterministic: %v vs %v", a, b)
	}
}
