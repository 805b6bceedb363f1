package integration_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/core"
	"odyssey/internal/netsim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/trace"
	"odyssey/internal/workload"
)

// determinismRun executes a compact multi-application scenario - wireless
// link variation, bandwidth adaptation, SmartBattery-driven goal-directed
// adaptation - and renders everything observable to one byte string: the
// full event log (text and CSV), exact final energy readings in hex float
// (so the very last ulp matters), and the per-principal energy ledger.
func determinismRun(t *testing.T, seed int64) string {
	t.Helper()
	const initialJ = 9_000.0
	goal := 10 * time.Minute

	rig := env.NewRig(seed, 1)
	rig.EnablePowerMgmt()

	quality := netsim.NewLinkQuality(rig.Net, 0.3, 2*time.Minute, 30*time.Second)
	quality.Start()
	rig.StartBandwidthMonitor(2 * time.Second)

	apps := workload.NewApps(rig)
	regs := apps.Register()
	apps.SetAllHighest()
	if err := apps.Video.EnableBandwidthAdaptation(env.BandwidthResource); err != nil {
		t.Fatal(err)
	}

	bat := smartbattery.New(rig.K, rig.M.Acct, 1, initialJ)
	bat.SetPolling(true)
	em := core.NewEnergyMonitorSource(rig.V, smartbattery.Source{B: bat}, core.DefaultEnergyConfig())
	em.SetGoal(goal)
	log := trace.NewLog(rig.K.Now, 1<<14)
	em.Events = log
	em.Start()

	done := false
	rig.K.At(goal, func() {
		done = true
		em.Stop()
		quality.Stop()
		rig.K.Stop()
	})
	apps.StartBurstyWorkload(func() bool { return done || bat.Depleted() })

	rig.K.Run(goal + time.Hour)

	var b strings.Builder
	b.WriteString(log.Text())
	b.WriteString(log.CSV())
	fmt.Fprintf(&b, "end=%v residual=%x total=%x\n", rig.K.Now(), bat.TrueResidual(), rig.M.Acct.TotalEnergy())
	for _, principal := range rig.M.Acct.Principals() {
		fmt.Fprintf(&b, "principal %s %x\n", principal, rig.M.Acct.EnergyByPrincipal()[principal])
	}
	for _, r := range regs {
		fmt.Fprintf(&b, "adaptations %s %d\n", r.App.Name(), r.Adaptations)
	}
	return b.String()
}

// TestSameSeedByteIdenticalTrace is the repo's standing determinism gate:
// two runs of the full scenario with the same seed must produce
// byte-identical trace output. Any wall-clock read, global-RNG call, map
// iteration leaking into scheduling, or data race that perturbs ordering
// shows up here as a diff.
func TestSameSeedByteIdenticalTrace(t *testing.T) {
	a := determinismRun(t, 1234)
	b := determinismRun(t, 1234)
	if a != b {
		t.Fatalf("same seed diverged:\n%s", firstDiff(a, b))
	}
	if len(a) == 0 {
		t.Fatal("scenario produced no observable output")
	}
}

// TestDifferentSeedsDiverge guards against the determinism test being
// vacuous: a different seed must actually change the observable run.
func TestDifferentSeedsDiverge(t *testing.T) {
	a := determinismRun(t, 1234)
	b := determinismRun(t, 4321)
	if a == b {
		t.Fatal("different seeds produced byte-identical output; the determinism gate is not sensitive")
	}
}

// firstDiff renders the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  run1: %s\n  run2: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("run1 has %d lines, run2 has %d", len(al), len(bl))
}
