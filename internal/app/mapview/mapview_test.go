package mapview

import (
	"testing"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/hw"
	"odyssey/internal/odfs"
	"odyssey/internal/sim"
)

func viewOnce(seed int64, m Map, cfg Config, think time.Duration, mgmt bool) (energy float64, dur time.Duration) {
	rig := env.NewRig(seed, 1)
	if mgmt {
		rig.EnablePowerMgmt()
	}
	rig.K.Spawn("w", func(p *sim.Proc) {
		cp := rig.M.Acct.Checkpoint()
		start := p.Now()
		View(rig, p, m, cfg, think)
		energy = cp.Since()
		dur = p.Now() - start
	})
	rig.K.Run(0)
	return energy, dur
}

func TestBytesUnderFidelities(t *testing.T) {
	m := StandardMaps()[0]
	full := m.Bytes(Config{Filter: FullDetail})
	minor := m.Bytes(Config{Filter: MinorRoadFilter})
	secondary := m.Bytes(Config{Filter: SecondaryRoadFilter})
	cropped := m.Bytes(Config{Filter: FullDetail, Cropped: true})
	combined := m.Bytes(Config{Filter: SecondaryRoadFilter, Cropped: true})
	if !(full > minor && minor > secondary) {
		t.Fatalf("filter ordering wrong: %v %v %v", full, minor, secondary)
	}
	if cropped >= full {
		t.Fatal("cropping did not reduce bytes")
	}
	if combined >= secondary || combined >= cropped {
		t.Fatal("combined not below its components")
	}
}

func TestFidelityEnergyOrdering(t *testing.T) {
	m := StandardMaps()[0]
	var prev float64 = -1
	for _, cfg := range []Config{
		{Filter: FullDetail},
		{Filter: MinorRoadFilter},
		{Filter: SecondaryRoadFilter},
		{Filter: SecondaryRoadFilter, Cropped: true},
	} {
		e, _ := viewOnce(2, m, cfg, 5*time.Second, true)
		if prev >= 0 && e >= prev {
			t.Fatalf("config %+v energy %.1f not below %.1f", cfg, e, prev)
		}
		prev = e
	}
}

func TestThinkTimeLinear(t *testing.T) {
	m := StandardMaps()[1]
	cfg := Config{Filter: FullDetail}
	e0, _ := viewOnce(3, m, cfg, 0, true)
	e10, _ := viewOnce(3, m, cfg, 10*time.Second, true)
	e20, _ := viewOnce(3, m, cfg, 20*time.Second, true)
	// Marginal energy per think second should be roughly constant
	// (within think-time jitter).
	slopeA := (e10 - e0) / 10
	slopeB := (e20 - e10) / 10
	if slopeA <= 0 || slopeB <= 0 {
		t.Fatalf("non-positive think slopes %v %v", slopeA, slopeB)
	}
	if r := slopeA / slopeB; r < 0.8 || r > 1.25 {
		t.Fatalf("think-time energy not linear: slopes %v vs %v", slopeA, slopeB)
	}
	// With power management the slope is the bright-display idle power
	// (display bright, disk and NIC in standby).
	prof := hw.ThinkPad560X()
	want := prof.Superlinear(prof.Other + prof.DisplayBright + prof.NICStandby + prof.DiskStandby)
	if slopeB < want*0.9 || slopeB > want*1.15 {
		t.Fatalf("managed think slope %.2f W, want ~%.2f W", slopeB, want)
	}
}

func TestNICStandbyDuringThink(t *testing.T) {
	rig := env.NewRig(4, 1)
	rig.EnablePowerMgmt()
	m := StandardMaps()[1]
	rig.K.Spawn("w", func(p *sim.Proc) {
		View(rig, p, m, Config{Filter: FullDetail}, 10*time.Second)
	})
	// Well into think time the NIC must be dozing.
	rig.K.At(14*time.Second, func() {
		if rig.M.NIC.State() != hw.NICStandby {
			t.Errorf("NIC %v during think time, want standby", rig.M.NIC.State())
		}
	})
	rig.K.Run(0)
}

func TestCroppedUsesLessScreen(t *testing.T) {
	rig := env.NewRig(5, 4)
	rig.ZonedPolicy = true
	rig.EnablePowerMgmt()
	m := StandardMaps()[0]
	var fullPower, croppedPower float64
	rig.K.Spawn("w", func(p *sim.Proc) {
		View(rig, p, m, Config{Filter: FullDetail}, time.Second)
		fullPower = rig.M.Display.Power()
		View(rig, p, m, Config{Filter: FullDetail, Cropped: true}, time.Second)
		croppedPower = rig.M.Display.Power()
	})
	rig.K.Run(0)
	if croppedPower >= fullPower {
		t.Fatalf("cropped display power %v >= full %v under zoned policy", croppedPower, fullPower)
	}
}

func TestViewerAdaptive(t *testing.T) {
	rig := env.NewRig(1, 1)
	v := NewViewer(rig)
	if v.Name() != "map" || len(v.Levels()) != 4 {
		t.Fatalf("viewer identity wrong: %q %v", v.Name(), v.Levels())
	}
	if v.Config().Filter != FullDetail || v.Config().Cropped {
		t.Fatal("viewer does not start at full detail")
	}
	v.SetLevel(0)
	if v.Config().Filter != SecondaryRoadFilter || !v.Config().Cropped {
		t.Fatal("lowest level is not cropped+secondary")
	}
	v.SetLevel(-1)
	if v.Level() != 0 {
		t.Fatal("clamp low failed")
	}
	v.SetLevel(100)
	if v.Level() != 3 {
		t.Fatal("clamp high failed")
	}
	if thinkTime != 5*time.Second {
		t.Fatalf("viewer think time %v, want the paper's 5 s", thinkTime)
	}
}

func TestWardenConfig(t *testing.T) {
	var w Warden
	if w.TypeName() != "map" {
		t.Fatalf("warden type %q", w.TypeName())
	}
	if c := w.ConfigFor(0); c.Filter != SecondaryRoadFilter || !c.Cropped {
		t.Fatal("warden lowest config wrong")
	}
	if c := w.ConfigFor(99); c.Filter != FullDetail {
		t.Fatal("warden clamp wrong")
	}
}

func TestFilterString(t *testing.T) {
	if FullDetail.String() != "full-detail" ||
		MinorRoadFilter.String() != "minor-road-filter" ||
		SecondaryRoadFilter.String() != "secondary-road-filter" {
		t.Fatal("filter names wrong")
	}
}

func TestStandardMapsSane(t *testing.T) {
	for _, m := range StandardMaps() {
		if m.FullBytes <= 0 {
			t.Fatalf("%s: empty map", m.City)
		}
		for _, f := range []float64{m.MinorFactor, m.SecondaryFactor, m.CropFactor} {
			if f <= 0 || f >= 1 {
				t.Fatalf("%s: factor %v out of (0,1)", m.City, f)
			}
		}
		if m.SecondaryFactor >= m.MinorFactor {
			t.Fatalf("%s: secondary filter keeps more than minor", m.City)
		}
	}
}

func TestWardenTSOp(t *testing.T) {
	rig := env.NewRig(9, 1)
	rig.EnablePowerMgmt()
	v := NewViewer(rig)
	m := StandardMaps()[1]
	obj := &odfs.Object{Path: "/m", Type: "map", Data: m}
	rig.K.Spawn("u", func(p *sim.Proc) {
		res, err := v.Warden.TSOp(p, obj, "fetch", 0, FetchArgs{Think: time.Second})
		if err != nil {
			t.Errorf("fetch tsop: %v", err)
			return
		}
		if res.(float64) >= m.FullBytes {
			t.Errorf("lowest fidelity fetched %v bytes of %v", res, m.FullBytes)
		}
		if _, err := v.Warden.TSOp(p, obj, "rotate", 0, nil); err == nil {
			t.Error("unknown op accepted")
		}
		bad := &odfs.Object{Path: "/b", Type: "map", Data: 42}
		if _, err := v.Warden.TSOp(p, bad, "fetch", 0, nil); err == nil {
			t.Error("non-Map payload accepted")
		}
	})
	rig.K.Run(0)
}
