package env

import (
	"math"
	"testing"
	"time"

	"odyssey/internal/hw"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
)

func TestNewRigDefaults(t *testing.T) {
	rig := NewRig(1, 1)
	if rig.PowerMgmt {
		t.Fatal("power management on by default")
	}
	if rig.M.Disk.State() != hw.DiskIdle || rig.M.NIC.State() != hw.NICIdle {
		t.Fatalf("baseline devices not idle: disk=%v nic=%v", rig.M.Disk.State(), rig.M.NIC.State())
	}
	for _, srv := range []interface{ Name() string }{} {
		_ = srv
	}
	if rig.VideoServer == nil || rig.JanusServer == nil || rig.MapServer == nil || rig.WebServer == nil {
		t.Fatal("servers not constructed")
	}
}

func TestEnablePowerMgmt(t *testing.T) {
	rig := NewRig(1, 1)
	rig.EnablePowerMgmt()
	if !rig.PowerMgmt || !rig.Net.StandbyPolicy {
		t.Fatal("policy flags not set")
	}
	if rig.M.Disk.State() != hw.DiskStandby || rig.M.NIC.State() != hw.NICStandby {
		t.Fatalf("managed devices not in standby: disk=%v nic=%v", rig.M.Disk.State(), rig.M.NIC.State())
	}
}

func TestIlluminateConventional(t *testing.T) {
	rig := NewRig(1, 1)
	rig.M.Display.SetAll(hw.BacklightOff)
	rig.IlluminateWindow(hw.Rect{X: 0.1, Y: 0.1, W: 0.4, H: 0.5})
	if got := rig.M.Display.Power(); math.Abs(got-rig.M.Prof.DisplayBright) > 1e-9 {
		t.Fatalf("conventional illuminate power %v, want full bright", got)
	}
}

func TestIlluminateZoned(t *testing.T) {
	rig := NewRig(1, 4)
	rig.ZonedPolicy = true
	// A window inside the top-left quadrant: zone 0 of the 2x2 grid bright,
	// the three zones it does not cover dim.
	rig.IlluminateWindow(hw.Rect{X: 0.05, Y: 0.05, W: 0.4, H: 0.4})
	for i, want := range []hw.BacklightMode{hw.BacklightBright, hw.BacklightDim, hw.BacklightDim, hw.BacklightDim} {
		if got := rig.M.Display.Zone(i); got != want {
			t.Errorf("zone %d %v, want %v", i, got, want)
		}
	}
	want := rig.M.Prof.DisplayBright/4 + 3*rig.M.Prof.DisplayDim/4
	if got := rig.M.Display.Power(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("zoned illuminate power %v, want %v", got, want)
	}
}

// TestIlluminateWindowNoLayoutPanics: a zoned rig whose zone count has no
// standard layout is a caller bug, and lighting a window on it panics.
func TestIlluminateWindowNoLayoutPanics(t *testing.T) {
	rig := NewRig(1, 3)
	rig.ZonedPolicy = true
	defer func() {
		if recover() == nil {
			t.Error("3-zone rig illuminated a window without panicking")
		}
	}()
	rig.IlluminateWindow(hw.Rect{W: 0.5, H: 0.5})
}

func TestThinkJitterBounds(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rig := NewRig(seed, 1)
		var dur time.Duration
		rig.K.Spawn("thinker", func(p *sim.Proc) {
			start := p.Now()
			rig.Think(p, 5*time.Second)
			dur = p.Now() - start
		})
		rig.K.Run(0)
		lo := time.Duration(float64(5*time.Second) * (1 - ThinkJitterFraction))
		hi := time.Duration(float64(5*time.Second) * (1 + ThinkJitterFraction))
		if dur < lo || dur > hi {
			t.Fatalf("seed %d: think time %v outside [%v, %v]", seed, dur, lo, hi)
		}
	}
}

func TestThinkZeroIsInstant(t *testing.T) {
	rig := NewRig(1, 1)
	var dur time.Duration
	rig.K.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		rig.Think(p, 0)
		dur = p.Now() - start
	})
	rig.K.Run(0)
	if dur != 0 {
		t.Fatalf("zero think took %v", dur)
	}
}

func TestRigDeterminismAcrossConstruction(t *testing.T) {
	measure := func() time.Duration {
		rig := NewRig(99, 1)
		var dur time.Duration
		rig.K.Spawn("t", func(p *sim.Proc) {
			start := p.Now()
			rig.Think(p, 5*time.Second)
			dur = p.Now() - start
		})
		rig.K.Run(0)
		return dur
	}
	if measure() != measure() {
		t.Fatal("same seed produced different think times")
	}
}

func TestLinkQualityDrivesBandwidthUpcalls(t *testing.T) {
	// The original Odyssey loop: link quality drops -> the bandwidth
	// monitor publishes less availability -> the application's resource
	// expectation fires.
	rig := NewRig(3, 1)
	q := netsim.NewLinkQuality(rig.Net, 0.2, time.Hour, time.Hour)
	q.Start()
	rig.StartBandwidthMonitor(time.Second)
	upcalls := 0
	if _, err := rig.V.Request(BandwidthResource, rig.M.Prof.LinkBandwidth/2, 1e12,
		func(float64) { upcalls++ }); err != nil {
		t.Fatal(err)
	}
	// Deterministically flip to the bad state: capacity drops to 20%,
	// below the expectation's low-water mark.
	rig.K.At(3*time.Second, func() { rig.Net.Link().SetCapacity(q.BadCapacity) })
	rig.K.At(10*time.Second, func() { rig.K.Stop() })
	rig.K.Run(0)
	if upcalls == 0 {
		t.Fatal("bandwidth expectation never fired under link degradation")
	}
}
