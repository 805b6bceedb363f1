package power

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"odyssey/internal/sim"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// set draws watts on the named component, registering it on first use.
func set(a *Accountant, name string, watts float64) { a.Set(a.Register(name), watts) }

func TestAccountantConstantPower(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	set(a, "display", 4.0)
	set(a, "other", 3.0)
	k.At(10*time.Second, func() {})
	k.Run(0)
	if got := a.TotalEnergy(); !approx(got, 70, 1e-9) {
		t.Fatalf("energy %v, want 70 J", got)
	}
	byC := a.EnergyByComponent()
	if !approx(byC["display"], 40, 1e-9) || !approx(byC["other"], 30, 1e-9) {
		t.Fatalf("component energies %v", byC)
	}
}

func TestAccountantPiecewise(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	set(a, "x", 2.0)
	k.At(5*time.Second, func() { set(a, "x", 6.0) })
	k.At(10*time.Second, func() { set(a, "x", 0.0) })
	k.At(20*time.Second, func() {})
	k.Run(0)
	// 2W*5s + 6W*5s + 0W*10s = 40 J
	if got := a.TotalEnergy(); !approx(got, 40, 1e-9) {
		t.Fatalf("energy %v, want 40 J", got)
	}
}

func TestAccountantNegativePowerPanics(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	defer func() {
		if recover() == nil {
			t.Error("negative power did not panic")
		}
	}()
	set(a, "bad", -1)
}

func TestAccountantSuperlinear(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	a.SetSuperlinear(func(sum float64) float64 { return sum + 0.1*sum })
	set(a, "x", 10.0)
	if got := a.Power(); !approx(got, 11.0, 1e-9) {
		t.Fatalf("power %v, want 11", got)
	}
	k.At(time.Second, func() {})
	k.Run(0)
	byC := a.EnergyByComponent()
	if !approx(byC["superlinear"], 1.0, 1e-9) {
		t.Fatalf("superlinear energy %v, want 1", byC["superlinear"])
	}
	if !approx(a.TotalEnergy(), 11.0, 1e-9) {
		t.Fatalf("total %v, want 11", a.TotalEnergy())
	}
}

func TestAccountantIdleAttribution(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	set(a, "x", 5.0)
	k.At(4*time.Second, func() {})
	k.Run(0)
	byP := a.EnergyByPrincipal()
	if !approx(byP[IdlePrincipal], 20, 1e-9) {
		t.Fatalf("idle energy %v, want 20", byP[IdlePrincipal])
	}
}

func TestAccountantShareAttribution(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	set(a, "x", 8.0)
	a.SetShares([]sim.Share{{Principal: "app", Fraction: 0.75}, {Principal: "irq", Fraction: 0.25}})
	k.At(2*time.Second, func() { a.SetShares(nil) })
	k.At(4*time.Second, func() {})
	k.Run(0)
	byP := a.EnergyByPrincipal()
	if !approx(byP["app"], 12, 1e-9) { // 8W*2s*0.75
		t.Fatalf("app energy %v, want 12", byP["app"])
	}
	if !approx(byP["irq"], 4, 1e-9) {
		t.Fatalf("irq energy %v, want 4", byP["irq"])
	}
	if !approx(byP[IdlePrincipal], 16, 1e-9) {
		t.Fatalf("idle energy %v, want 16", byP[IdlePrincipal])
	}
}

func TestAccountantPrincipalsSorted(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	set(a, "x", 10.0)
	a.SetShares([]sim.Share{{Principal: "big", Fraction: 0.9}, {Principal: "small", Fraction: 0.1}})
	k.At(time.Second, func() {})
	k.Run(0)
	ps := a.Principals()
	if len(ps) != 2 || ps[0] != "big" || ps[1] != "small" {
		t.Fatalf("principals %v", ps)
	}
}

func TestCheckpoint(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	set(a, "x", 3.0)
	var cp Checkpoint
	k.At(2*time.Second, func() { cp = a.Checkpoint() })
	k.At(7*time.Second, func() {})
	k.Run(0)
	if got := cp.Since(); !approx(got, 15, 1e-9) { // 3W * 5s
		t.Fatalf("interval energy %v, want 15", got)
	}
}

// Property: total energy equals the sum over principals and (within the
// superlinear pseudo-component) the sum over components, for random
// piecewise schedules.
func TestAccountantConservation(t *testing.T) {
	prop := func(steps []uint8) bool {
		if len(steps) == 0 || len(steps) > 30 {
			return true
		}
		k := sim.NewKernel(3)
		a := NewAccountant(k)
		a.SetSuperlinear(func(sum float64) float64 { return sum * 1.02 })
		set(a, "base", 2.0)
		tm := time.Duration(0)
		for _, s := range steps {
			tm += time.Duration(s%10+1) * 100 * time.Millisecond
			w := float64(s%8) * 0.5
			pr := []string{"a", "b", "c"}[s%3]
			k.At(tm, func() {
				set(a, "var", w)
				if s%2 == 0 {
					a.SetShares([]sim.Share{{Principal: pr, Fraction: 1}})
				} else {
					a.SetShares(nil)
				}
			})
		}
		k.Run(0)
		total := a.TotalEnergy()
		sumP := 0.0
		for _, v := range a.EnergyByPrincipal() {
			sumP += v
		}
		sumC := 0.0
		for _, v := range a.EnergyByComponent() {
			sumC += v
		}
		return approx(sumP, total, 1e-6*total+1e-9) && approx(sumC, total, 1e-6*total+1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSupplyResidual(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	set(a, "x", 10.0)
	s := NewSupply(a, 100)
	k.At(4*time.Second, func() {})
	k.Run(0)
	if got := s.Residual(); !approx(got, 60, 1e-9) {
		t.Fatalf("residual %v, want 60", got)
	}
	if s.Depleted() {
		t.Fatal("not yet depleted")
	}
	k.At(20*time.Second, func() {})
	k.Run(0)
	if !s.Depleted() {
		t.Fatal("should be depleted")
	}
	if got := s.Residual(); got != 0 {
		t.Fatalf("depleted residual %v, want 0", got)
	}
}

func TestSupplyExternal(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	set(a, "x", 100.0)
	s := NewSupply(a, 0)
	k.At(time.Hour, func() {})
	k.Run(0)
	if s.Depleted() {
		t.Fatal("external supply depleted")
	}
	if !s.External() {
		t.Fatal("External() = false")
	}
	if got := s.Consumed(); !approx(got, 360000, 1) {
		t.Fatalf("consumed %v", got)
	}
}

func TestSupplyAttachMidRun(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	set(a, "x", 5.0)
	var s *Supply
	k.At(10*time.Second, func() { s = NewSupply(a, 50) })
	k.At(14*time.Second, func() {})
	k.Run(0)
	if got := s.Consumed(); !approx(got, 20, 1e-9) {
		t.Fatalf("consumed %v, want 20 (only post-attach draw)", got)
	}
}

func TestMeterSamples(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	set(a, "x", 7.5)
	var samples []float64
	m := NewMeter(k, a, 100*time.Millisecond, 0, func(_ time.Duration, w float64) {
		samples = append(samples, w)
	})
	m.Start()
	k.At(time.Second, func() { m.Stop() })
	k.Run(2 * time.Second)
	if len(samples) != 9 {
		t.Fatalf("got %d samples, want 9 (t=1.0 sample cancelled by Stop)", len(samples))
	}
	for _, s := range samples {
		if !approx(s, 7.5, 1e-9) {
			t.Fatalf("sample %v, want 7.5", s)
		}
	}
}

func TestMeterJitterStaysPositive(t *testing.T) {
	k := sim.NewKernel(9)
	a := NewAccountant(k)
	set(a, "x", 1)
	n := 0
	m := NewMeter(k, a, time.Millisecond, time.Millisecond, func(time.Duration, float64) { n++ })
	m.Start()
	k.At(time.Second, func() { m.Stop() })
	k.Run(2 * time.Second)
	if n < 500 || n > 4000 {
		t.Fatalf("jittered meter produced %d samples over 1s at ~1kHz", n)
	}
}

func TestMeterStartIdempotent(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	n := 0
	m := NewMeter(k, a, 100*time.Millisecond, 0, func(time.Duration, float64) { n++ })
	m.Start()
	m.Start()
	k.At(time.Second, func() { m.Stop() })
	k.Run(2 * time.Second)
	if n != 9 {
		t.Fatalf("double Start produced %d samples, want 9", n)
	}
}
