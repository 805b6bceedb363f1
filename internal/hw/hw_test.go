package hw

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"odyssey/internal/power"
	"odyssey/internal/sim"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestProfileCrossChecks verifies the Figure 4 reconstruction against every
// numeric cross-check the paper's text provides.
func TestProfileCrossChecks(t *testing.T) {
	p := ThinkPad560X()
	// "Background (display dim, WaveLAN & disk standby) = 5.6 W"
	if got := p.BackgroundPower(); !approx(got, 5.6, 0.05) {
		t.Errorf("background power %v, want ~5.6 W", got)
	}
	// "the laptop uses 10.28 W when the screen is brightest and the disk
	// and network are idle"
	if got := p.FullOnIdlePower(); !approx(got, 10.28, 0.02) {
		t.Errorf("full-on idle power %v, want ~10.28 W", got)
	}
	// "0.21 W more than the sum of the individual power usage"
	sum := p.Other + p.DisplayBright + p.NICIdle + p.DiskIdle
	if got := p.FullOnIdlePower() - sum; !approx(got, 0.21, 0.005) {
		t.Errorf("superlinear excess %v, want ~0.21 W", got)
	}
	// "[the display] is responsible for nearly 35% of the background
	// energy usage"
	if frac := p.DisplayDim / p.BackgroundPower(); frac < 0.32 || frac > 0.38 {
		t.Errorf("display share of background %v, want ~0.35", frac)
	}
	// Superlinearity never reduces power and is monotone.
	if p.Superlinear(3.0) < 3.0 {
		t.Error("superlinear correction reduced power below sum")
	}
}

func newTestMachine(seed int64) *Machine {
	return NewMachine(sim.NewKernel(seed), ThinkPad560X(), 1)
}

func TestMachineInitialState(t *testing.T) {
	m := newTestMachine(1)
	if got := m.Power(); !approx(got, m.Prof.FullOnIdlePower(), 1e-9) {
		t.Fatalf("initial power %v, want full-on idle %v", got, m.Prof.FullOnIdlePower())
	}
	if m.Disk.State() != DiskIdle || m.NIC.State() != NICIdle {
		t.Fatalf("initial disk %v nic %v", m.Disk.State(), m.NIC.State())
	}
}

func TestMachinePowerManagementDrop(t *testing.T) {
	m := newTestMachine(1)
	m.EnablePowerManagement()
	// Display still bright; disk and NIC in standby.
	want := m.Prof.Superlinear(m.Prof.Other + m.Prof.DisplayBright + m.Prof.NICStandby + m.Prof.DiskStandby)
	if got := m.Power(); !approx(got, want, 1e-9) {
		t.Fatalf("managed power %v, want %v", got, want)
	}
}

func TestDisplayModes(t *testing.T) {
	m := newTestMachine(1)
	d := m.Display
	d.SetAll(BacklightDim)
	if !approx(d.Power(), m.Prof.DisplayDim, 1e-12) {
		t.Errorf("dim power %v", d.Power())
	}
	d.SetAll(BacklightOff)
	if !approx(d.Power(), 0, 1e-12) {
		t.Errorf("off power %v", d.Power())
	}
	d.SetAll(BacklightBright)
	if !approx(d.Power(), m.Prof.DisplayBright, 1e-12) {
		t.Errorf("bright power %v", d.Power())
	}
}

func TestZonedDisplayPower(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMachine(k, ThinkPad560X(), 4)
	d := m.Display
	// 1 of 4 zones bright, rest off: quarter of bright power.
	d.SetAll(BacklightOff)
	d.SetZone(0, BacklightBright)
	if got := d.Power(); !approx(got, m.Prof.DisplayBright/4, 1e-12) {
		t.Fatalf("1/4-zone power %v, want %v", got, m.Prof.DisplayBright/4)
	}
	// 2 bright + 2 dim.
	d.SetZone(1, BacklightBright)
	d.SetZone(2, BacklightDim)
	d.SetZone(3, BacklightDim)
	want := m.Prof.DisplayBright/2 + m.Prof.DisplayDim/2
	if got := d.Power(); !approx(got, want, 1e-12) {
		t.Fatalf("2+2 power %v, want %v", got, want)
	}
	// The accountant books the draw the display reports.
	if got := m.Acct.Component(CompDisplay); got != d.Power() {
		t.Fatalf("accountant display draw %v, want %v", got, d.Power())
	}
}

func TestDisplayInvalidZonePanics(t *testing.T) {
	m := newTestMachine(1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range zone did not panic")
		}
	}()
	m.Display.SetZone(5, BacklightOff)
}

func TestDiskSpinDown(t *testing.T) {
	m := newTestMachine(1)
	m.Disk.SetPowerManagement(true)
	k := m.K
	k.At(9*time.Second, func() {
		if m.Disk.State() != DiskIdle {
			t.Errorf("disk %v before spin-down timeout", m.Disk.State())
		}
	})
	k.At(11*time.Second, func() {
		if m.Disk.State() != DiskStandby {
			t.Errorf("disk %v after spin-down timeout, want standby", m.Disk.State())
		}
	})
	k.Run(0)
}

func TestDiskAccessSpinUpAndRearm(t *testing.T) {
	m := newTestMachine(1)
	m.Disk.SetPowerManagement(true)
	m.Disk.ForceStandby()
	k := m.K
	var afterAccess time.Duration
	k.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(time.Second)
		m.Disk.Access(p, 500*time.Millisecond)
		afterAccess = p.Now()
		if m.Disk.State() != DiskIdle {
			t.Errorf("disk %v after access, want idle", m.Disk.State())
		}
	})
	k.Run(0)
	want := time.Second + m.Prof.DiskSpinUp + 500*time.Millisecond
	if afterAccess != want {
		t.Fatalf("access completed at %v, want %v (spin-up + busy)", afterAccess, want)
	}
	if m.Disk.SpinUps() != 1 {
		t.Fatalf("spin-ups %d, want 1", m.Disk.SpinUps())
	}
	// Timer re-armed: the disk should be back in standby 10 s later.
	if m.Disk.State() != DiskStandby {
		t.Fatalf("disk %v at end, want standby (timer re-armed)", m.Disk.State())
	}
}

func TestDiskNoSpinDownWithoutMgmt(t *testing.T) {
	m := newTestMachine(1)
	m.K.At(time.Minute, func() {})
	m.K.Run(0)
	if m.Disk.State() != DiskIdle {
		t.Fatalf("unmanaged disk %v, want idle forever", m.Disk.State())
	}
}

func TestDiskDisableMgmtSpinsBackUp(t *testing.T) {
	m := newTestMachine(1)
	m.Disk.SetPowerManagement(true)
	m.Disk.ForceStandby()
	m.Disk.SetPowerManagement(false)
	if m.Disk.State() != DiskIdle {
		t.Fatalf("disk %v after disabling mgmt, want idle", m.Disk.State())
	}
}

func TestNICStatePower(t *testing.T) {
	m := newTestMachine(1)
	p := m.Prof
	cases := []struct {
		s NICState
		w float64
	}{
		{NICOff, p.NICOff},
		{NICStandby, p.NICStandby},
		{NICIdle, p.NICIdle},
		{NICTransfer, p.NICTransfer},
	}
	for _, c := range cases {
		m.NIC.SetState(c.s)
		if got := m.Acct.Component(CompNetwork); !approx(got, c.w, 1e-12) {
			t.Errorf("NIC %v draw %v, want %v", c.s, got, c.w)
		}
	}
}

func TestCPUBusyPowerAndAttribution(t *testing.T) {
	m := newTestMachine(1)
	k := m.K
	k.Spawn("app", func(p *sim.Proc) {
		m.CPU.Run(p, "janus", 2.0) // 2 cpu-seconds alone -> 2 s busy
	})
	k.At(5*time.Second, func() {})
	k.Run(0)
	if m.CPU.Busy() {
		t.Fatal("CPU still busy at end")
	}
	if got := m.CPU.BusyTime(); !approx(got, 2.0, 1e-6) {
		t.Fatalf("busy time %v, want 2 s", got)
	}
	byC := m.Acct.EnergyByComponent()
	if got := byC[CompCPU]; !approx(got, 2.0*m.Prof.CPUBusy, 1e-6) {
		t.Fatalf("cpu energy %v, want %v", got, 2.0*m.Prof.CPUBusy)
	}
	byP := m.Acct.EnergyByPrincipal()
	if byP["janus"] <= 0 {
		t.Fatal("no energy attributed to janus")
	}
	if byP[power.IdlePrincipal] <= 0 {
		t.Fatal("no idle energy attributed")
	}
}

// Property: for any sequence of device states, machine power equals the
// superlinear correction of the sum of the published component draws, and
// is monotone in each component.
func TestMachinePowerComposition(t *testing.T) {
	prop := func(dm, nm, km uint8) bool {
		m := newTestMachine(1)
		m.Display.SetAll(BacklightMode(dm % 3))
		m.NIC.SetState(NICState(nm % 4))
		switch km % 4 {
		case 0:
			m.Disk.ForceStandby()
		case 1: // leave idle
		case 2:
			m.Disk.SetPowerManagement(true)
			m.Disk.ForceStandby()
		case 3: // idle, mgmt on
			m.Disk.SetPowerManagement(true)
		}
		sum := m.Acct.Component(CompDisplay) + m.Acct.Component(CompNetwork) +
			m.Acct.Component(CompDisk) + m.Acct.Component(CompCPU) + m.Acct.Component(CompOther)
		return approx(m.Power(), m.Prof.Superlinear(sum), 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFigure4Microbench reproduces the paper's methodology for Figure 4:
// toggle one device at a time and measure the change in total power.
func TestFigure4Microbench(t *testing.T) {
	m := newTestMachine(1)
	m.Display.SetAll(BacklightOff)
	m.NIC.SetState(NICOff)
	m.Disk.ForceStandby()
	m.Disk.SetPowerManagement(true)
	// Disk off is not reachable through the public API mid-run; compare
	// against standby as floor.
	floor := m.Power()

	m.Display.SetAll(BacklightBright)
	brightDelta := m.Power() - floor
	m.Display.SetAll(BacklightOff)
	if brightDelta < m.Prof.DisplayBright {
		t.Errorf("bright display delta %v below component figure %v (superlinearity should add)", brightDelta, m.Prof.DisplayBright)
	}
	m.NIC.SetState(NICIdle)
	nicDelta := m.Power() - floor
	m.NIC.SetState(NICOff)
	if nicDelta < m.Prof.NICIdle-m.Prof.NICOff {
		t.Errorf("nic idle delta %v below component figure", nicDelta)
	}
}

func TestCPUSpeedScaling(t *testing.T) {
	m := newTestMachine(1)
	var full, half time.Duration
	m.K.Spawn("a", func(p *sim.Proc) {
		start := p.Now()
		m.CPU.Run(p, "a", 1.0)
		full = p.Now() - start
		m.CPU.SetSpeed(0.5)
		start = p.Now()
		m.CPU.Run(p, "a", 1.0)
		half = p.Now() - start
	})
	m.K.Run(0)
	if r := half.Seconds() / full.Seconds(); r < 1.9 || r > 2.1 {
		t.Fatalf("half speed took %vx as long, want ~2x", r)
	}
	// Busy power at half speed is one eighth of nominal (cubic model).
	m.CPU.SetSpeed(0.5)
	m.CPU.RunAsync("x", 100, nil)
	if got := m.Acct.Component(CompCPU); !approx(got, m.Prof.CPUBusy/8, 1e-9) {
		t.Fatalf("busy power %v at half speed, want %v", got, m.Prof.CPUBusy/8)
	}
}

func TestCPUSpeedPanics(t *testing.T) {
	m := newTestMachine(1)
	for _, s := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("speed %v did not panic", s)
				}
			}()
			m.CPU.SetSpeed(s)
		}()
	}
}

func TestDVSGovernorTracksUtilization(t *testing.T) {
	m := newTestMachine(1)
	g := NewDVSGovernor(m.K, m.CPU)
	g.Start()
	// A light periodic load (20% duty at nominal) lets the governor fall
	// to a low P-state.
	m.K.Spawn("light", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			m.CPU.Run(p, "light", 0.02)
			p.SleepUntil(time.Duration(i+1) * 100 * time.Millisecond)
		}
	})
	m.K.At(4*time.Second, func() {
		if s := m.CPU.Speed(); s > 0.6 {
			t.Errorf("governor stuck at speed %v under 20%% load", s)
		}
	})
	// Then saturate: the governor must race back up.
	m.K.At(4100*time.Millisecond, func() {
		m.CPU.RunAsync("heavy", 3.0, nil)
	})
	m.K.At(6*time.Second, func() {
		if s := m.CPU.Speed(); s < 1.0 {
			t.Errorf("governor at speed %v under saturation, want 1.0", s)
		}
		g.Stop()
		m.K.Stop()
	})
	m.K.Run(0)
	if g.Changes() == 0 {
		t.Fatal("governor never changed speed")
	}
}

func TestDVSGovernorStopRestoresFullSpeed(t *testing.T) {
	m := newTestMachine(1)
	g := NewDVSGovernor(m.K, m.CPU)
	g.Start()
	m.K.At(time.Second, func() {
		g.Stop()
		if m.CPU.Speed() != 1.0 {
			t.Errorf("speed %v after Stop", m.CPU.Speed())
		}
	})
	m.K.Run(2 * time.Second)
}

func TestDVSSavesEnergyOnSlackWorkload(t *testing.T) {
	run := func(dvs bool) float64 {
		m := newTestMachine(2)
		m.EnablePowerManagement()
		if dvs {
			NewDVSGovernor(m.K, m.CPU).Start()
		}
		m.K.Spawn("periodic", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				m.CPU.Run(p, "app", 0.03) // 30% duty at nominal
				p.SleepUntil(time.Duration(i+1) * 100 * time.Millisecond)
			}
		})
		m.K.Run(12 * time.Second)
		return m.Acct.EnergyByComponent()[CompCPU]
	}
	base := run(false)
	scaled := run(true)
	if scaled >= base {
		t.Fatalf("DVS cpu energy %.1f J not below fixed-speed %.1f J", scaled, base)
	}
	// Cubic power at ~half speed on a slack workload should cut CPU
	// energy by well over half.
	if scaled > 0.6*base {
		t.Fatalf("DVS saved only %.0f%%", (1-scaled/base)*100)
	}
}
