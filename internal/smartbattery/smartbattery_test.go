package smartbattery

import (
	"math"
	"testing"
	"time"

	"odyssey/internal/core"
	"odyssey/internal/power"
	"odyssey/internal/sim"
)

func newBattery(seed int64, peukert, initial float64) (*sim.Kernel, *power.Accountant, *Battery) {
	k := sim.NewKernel(seed)
	acct := power.NewAccountant(k)
	return k, acct, New(k, acct, peukert, initial)
}

func TestDrainTracksAccountant(t *testing.T) {
	k, acct, b := newBattery(1, 1, 1000)
	acct.Set(acct.Register("load"), 10.0)
	k.At(20*time.Second, func() {})
	k.Run(0)
	if got := b.TrueResidual(); math.Abs(got-800) > 1e-6 {
		t.Fatalf("residual %v, want 800", got)
	}
	if b.Depleted() {
		t.Fatal("not yet depleted")
	}
	k.At(k.Now()+100*time.Second, func() {})
	k.Run(0)
	if !b.Depleted() {
		t.Fatal("should be depleted")
	}
}

func TestCapacityQuantization(t *testing.T) {
	k, acct, b := newBattery(1, 1, 1000)
	acct.Set(acct.Register("load"), 1.0)
	k.At(30*time.Second, func() {})
	k.Run(0)
	// True residual 970; the readout floors to the 36 J (10 mWh) grid.
	if got := b.RemainingCapacity(); got != 936 {
		t.Fatalf("quantized capacity %v, want 936", got)
	}
}

func TestCurrentQuantization(t *testing.T) {
	k, acct, b := newBattery(1, 1, 10000)
	acct.Set(acct.Register("load"), 8.23)
	k.At(time.Second, func() {})
	k.Run(0)
	got := b.Power()
	// 8.23 W = 0.514 A -> rounds to 0.51 A on the 10 mA grid -> 8.16 W.
	if math.Abs(got-8.16) > 1e-9 {
		t.Fatalf("quantized power %v, want 8.16", got)
	}
}

func TestRefreshRateLimit(t *testing.T) {
	k, acct, b := newBattery(1, 1, 10000)
	acct.Set(acct.Register("load"), 8.0)
	var first, second, third, truth1, truth2 float64
	k.At(3400*time.Millisecond, func() { first, truth1 = b.RemainingCapacity(), b.TrueResidual() })
	// Reading again 200 ms later, within the 250 ms refresh period,
	// returns the cached value even though the pack has drained past the
	// next capacity step (9972 J, at 3.5 s).
	k.At(3600*time.Millisecond, func() { second, truth2 = b.RemainingCapacity(), b.TrueResidual() })
	k.At(4*time.Second, func() { third = b.RemainingCapacity() })
	k.Run(0)
	if math.Floor(truth1/capacityQuantum) == math.Floor(truth2/capacityQuantum) {
		t.Fatalf("true residual %v -> %v crossed no capacity step; a fresh reading would not change either", truth1, truth2)
	}
	if first != second {
		t.Fatalf("reading changed within refresh period: %v -> %v", first, second)
	}
	if third >= first {
		t.Fatalf("reading did not advance after refresh period: %v -> %v", first, third)
	}
}

func TestPollingOverheadBilled(t *testing.T) {
	k, acct, b := newBattery(1, 1, 10000)
	acct.Set(acct.Register("load"), 5.0)
	b.SetPolling(true)
	k.At(100*time.Second, func() {})
	k.Run(0)
	byC := acct.EnergyByComponent()
	want := measureOverheadWatts * 100
	if math.Abs(byC["smartbattery"]-want) > 1e-6 {
		t.Fatalf("overhead energy %v, want %v", byC["smartbattery"], want)
	}
	b.SetPolling(false)
	if acct.Component("smartbattery") != 0 {
		t.Fatal("overhead still billed after polling disabled")
	}
}

func TestPeukertDrainsFasterAtHighLoad(t *testing.T) {
	run := func(watts float64, peukert float64) float64 {
		k, acct, b := newBattery(1, peukert, 100000)
		acct.Set(acct.Register("load"), watts)
		k.At(100*time.Second, func() {})
		k.Run(0)
		return b.Initial() - b.TrueResidual() // effective drain
	}
	ideal := run(20.0, 1.0)
	real := run(20.0, 1.08)
	if real <= ideal {
		t.Fatalf("Peukert drain %v not above ideal %v at high load", real, ideal)
	}
	// At or below the rated current the pack behaves nominally.
	lowIdeal := run(8.0, 1.0)
	lowReal := run(8.0, 1.08)
	if math.Abs(lowReal-lowIdeal) > 1e-6 {
		t.Fatalf("Peukert changed drain below rated current: %v vs %v", lowReal, lowIdeal)
	}
}

func TestSourceDrivesEnergyMonitor(t *testing.T) {
	k, acct, b := newBattery(1, 1, 2000)
	b.SetPolling(true)
	acct.Set(acct.Register("load"), 10.0)
	v := core.NewViceroy(k)
	app := &testApp{level: 2}
	v.RegisterApp(app, 1)
	em := core.NewEnergyMonitorSource(v, Source{B: b}, core.DefaultEnergyConfig())
	em.SetGoal(500 * time.Second) // infeasible at 10 W: must degrade
	em.Start()
	k.At(30*time.Second, func() { em.Stop() })
	k.Run(time.Minute)
	if app.level != 0 {
		t.Fatalf("monitor on SmartBattery readings did not degrade: level %d", app.level)
	}
	if em.SmoothedPower() < 8 || em.SmoothedPower() > 12 {
		t.Fatalf("smoothed power %v from quantized readings, want ~10", em.SmoothedPower())
	}
}

type testApp struct{ level int }

func (a *testApp) Name() string     { return "app" }
func (a *testApp) Levels() []string { return []string{"lo", "mid", "hi"} }
func (a *testApp) Level() int       { return a.level }
func (a *testApp) SetLevel(l int)   { a.level = l }

func TestQuantizedReadingsCloseToTruth(t *testing.T) {
	k, acct, b := newBattery(1, 1, 20000)
	acct.Set(acct.Register("load"), 11.37)
	k.At(60*time.Second, func() {})
	k.Run(0)
	reading := b.RemainingCapacity()
	truth := b.TrueResidual()
	if math.Abs(reading-truth) > capacityQuantum+1 {
		t.Fatalf("capacity reading %v vs truth %v differ beyond one quantum", reading, truth)
	}
	if math.Abs(b.Power()-11.37) > currentQuantum*voltage+1e-9 {
		t.Fatalf("power reading %v vs truth 11.37 beyond one quantum", b.Power())
	}
}
