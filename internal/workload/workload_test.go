package workload

import (
	"slices"
	"testing"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/app/video"
	"odyssey/internal/sim"
)

func TestCompositeDurationBand(t *testing.T) {
	// "This experiment takes between 80 and 160 seconds" across fidelity
	// configurations (six iterations).
	for _, lowest := range []bool{false, true} {
		rig := env.NewRig(1, 1)
		rig.EnablePowerMgmt()
		apps := NewApps(rig)
		if lowest {
			apps.SetAllLowest()
		}
		var dur time.Duration
		rig.K.Spawn("composite", func(p *sim.Proc) {
			start := p.Now()
			apps.RunComposite(p, 6)
			dur = p.Now() - start
		})
		rig.K.Run(0)
		if dur < 75*time.Second || dur > 200*time.Second {
			t.Fatalf("lowest=%v: composite duration %v outside the paper's rough band", lowest, dur)
		}
	}
}

func TestCompositeLowestFidelityCheaper(t *testing.T) {
	run := func(lowest bool) float64 {
		rig := env.NewRig(2, 1)
		rig.EnablePowerMgmt()
		apps := NewApps(rig)
		if lowest {
			apps.SetAllLowest()
		}
		var e float64
		rig.K.Spawn("composite", func(p *sim.Proc) {
			cp := rig.M.Acct.Checkpoint()
			apps.RunComposite(p, 3)
			e = cp.Since()
		})
		rig.K.Run(0)
		return e
	}
	hi, lo := run(false), run(true)
	if lo >= hi {
		t.Fatalf("lowest fidelity composite (%.1f J) not below full (%.1f J)", lo, hi)
	}
}

// TestRegisterPriorities pins the registrations: the four applications in
// Names order with the paper's priorities 1-4, each with its level names,
// lowest fidelity first.
func TestRegisterPriorities(t *testing.T) {
	rig := env.NewRig(3, 1)
	apps := NewApps(rig)
	regs := apps.Register()
	want := []struct {
		name   string
		levels []string
	}{
		{"speech", []string{"reduced-vocabulary", "full-vocabulary"}},
		{"video", []string{"Combined", "Premiere-C", "Premiere-B", "Baseline"}},
		{"map", []string{"cropped+secondary-filter", "secondary-filter", "minor-filter", "full-detail"}},
		{"web", []string{"JPEG-5", "JPEG-25", "JPEG-50", "JPEG-75", "full-fidelity"}},
	}
	if len(regs) != len(want) {
		t.Fatalf("%d registrations, want %d", len(regs), len(want))
	}
	for i, w := range want {
		r := regs[i]
		if r.App.Name() != w.name || Names[i] != w.name || r.Priority != i+1 {
			t.Errorf("registration %d: %s (Names %s) at priority %d, want %s at %d",
				i, r.App.Name(), Names[i], r.Priority, w.name, i+1)
		}
		if !slices.Equal(r.App.Levels(), w.levels) || r.NumLevels() != len(w.levels) {
			t.Errorf("%s levels %v (%d registered), want %v", w.name, r.App.Levels(), r.NumLevels(), w.levels)
		}
	}
}

func TestSetAllLevels(t *testing.T) {
	rig := env.NewRig(4, 1)
	apps := NewApps(rig)
	apps.SetAllLowest()
	for _, a := range []interface{ Level() int }{apps.Video, apps.Speech, apps.Map, apps.Web} {
		if a.Level() != 0 {
			t.Fatal("SetAllLowest missed an app")
		}
	}
	apps.SetAllHighest()
	if apps.Video.Level() != len(apps.Video.Levels())-1 || apps.Web.Level() != len(apps.Web.Levels())-1 {
		t.Fatal("SetAllHighest missed an app")
	}
	rig.K.Run(0)
}

func TestGoalWorkloadKeepsBothDriversBusy(t *testing.T) {
	rig := env.NewRig(5, 1)
	rig.EnablePowerMgmt()
	apps := NewApps(rig)
	done := false
	rig.K.At(120*time.Second, func() { done = true; rig.K.Stop() })
	apps.StartGoalWorkload(25*time.Second, func() bool { return done })
	rig.K.Run(0)
	byP := rig.M.Acct.EnergyByPrincipal()
	for _, principal := range []string{video.PrincipalXanim, "janus", "anvil", "netscape"} {
		if byP[principal] <= 0 {
			t.Fatalf("no energy attributed to %s in goal workload", principal)
		}
	}
}

func TestGoalWorkloadCompositePeriod(t *testing.T) {
	rig := env.NewRig(6, 1)
	rig.EnablePowerMgmt()
	apps := NewApps(rig)
	apps.SetAllLowest() // iterations finish well within the period
	done := false
	rig.K.At(130*time.Second, func() { done = true; rig.K.Stop() })
	apps.StartGoalWorkload(25*time.Second, func() bool { return done })
	rig.K.Run(0)
	// At lowest fidelity each iteration is far shorter than 25 s, so in
	// 130 s roughly five map views should have occurred (one per period).
	byP := rig.M.Acct.EnergyByPrincipal()
	if byP["anvil"] <= 0 {
		t.Fatal("composite never ran")
	}
}

func TestBurstyWorkloadRunsAndStops(t *testing.T) {
	rig := env.NewRig(7, 1)
	rig.EnablePowerMgmt()
	apps := NewApps(rig)
	done := false
	rig.K.At(5*time.Minute, func() { done = true })
	apps.StartBurstyWorkload(func() bool { return done })
	end := rig.K.Run(20 * time.Minute)
	// All slotted drivers observe the stop flag within one slot.
	if end > 7*time.Minute {
		t.Fatalf("bursty workload still active at %v after stop at 5m", end)
	}
	if rig.M.Acct.TotalEnergy() <= 0 {
		t.Fatal("bursty workload consumed no energy")
	}
}

func TestBurstyWorkloadVariesAcrossSeeds(t *testing.T) {
	energies := map[float64]bool{}
	for seed := int64(10); seed < 13; seed++ {
		rig := env.NewRig(seed, 1)
		rig.EnablePowerMgmt()
		apps := NewApps(rig)
		done := false
		rig.K.At(4*time.Minute, func() { done = true })
		apps.StartBurstyWorkload(func() bool { return done })
		rig.K.Run(10 * time.Minute)
		energies[rig.M.Acct.TotalEnergy()] = true
	}
	if len(energies) < 2 {
		t.Fatal("bursty workloads identical across seeds")
	}
}

func TestVideoLoopStops(t *testing.T) {
	rig := env.NewRig(8, 1)
	apps := NewApps(rig)
	stop := false
	rig.K.At(25*time.Second, func() { stop = true })
	rig.K.Spawn("loop", func(p *sim.Proc) {
		apps.VideoLoop(p, video.Clip{Name: "c", Length: 10 * time.Second}, func() bool { return stop })
	})
	end := rig.K.Run(2 * time.Minute)
	if end > 45*time.Second {
		t.Fatalf("video loop did not stop promptly: ended at %v", end)
	}
}
