package smartbattery

import (
	"math"
	"testing"
	"time"

	"odyssey/internal/core"
	"odyssey/internal/power"
	"odyssey/internal/sim"
)

func newBattery(seed int64, cfg Config, initial float64) (*sim.Kernel, *power.Accountant, *Battery) {
	k := sim.NewKernel(seed)
	acct := power.NewAccountant(k)
	return k, acct, New(k, acct, cfg, initial)
}

func TestDrainTracksAccountant(t *testing.T) {
	k, acct, b := newBattery(1, DefaultConfig(), 1000)
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
	cfg := DefaultConfig()
	cfg.CapacityQuantum = 50
	k, acct, b := newBattery(1, cfg, 1000)
	acct.Set(acct.Register("load"), 1.0)
	k.At(30*time.Second, func() {})
	k.Run(0)
	// True residual 970; the readout floors to the 50 J grid.
	if got := b.RemainingCapacity(); got != 950 {
		t.Fatalf("quantized capacity %v, want 950", got)
	}
}

func TestCurrentQuantization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CurrentQuantum = 0.1 // coarse: 1.6 W steps at 16 V
	k, acct, b := newBattery(1, cfg, 10000)
	acct.Set(acct.Register("load"), 8.23)
	k.At(time.Second, func() {})
	k.Run(0)
	got := b.Power()
	// 8.23 W = 0.514 A -> rounds to 0.5 A -> 8.0 W.
	if math.Abs(got-8.0) > 1e-9 {
		t.Fatalf("quantized power %v, want 8.0", got)
	}
}

func TestRefreshRateLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshPeriod = time.Second
	k, acct, b := newBattery(1, cfg, 10000)
	acct.Set(acct.Register("load"), 8.0)
	var first, second, third float64
	k.At(2*time.Second, func() { first = b.RemainingCapacity() })
	// Reading again within the refresh period returns the cached value
	// even though more energy has drained.
	k.At(2*time.Second+200*time.Millisecond, func() { second = b.RemainingCapacity() })
	k.At(4*time.Second, func() { third = b.RemainingCapacity() })
	k.Run(0)
	if first != second {
		t.Fatalf("reading changed within refresh period: %v -> %v", first, second)
	}
	if third >= first {
		t.Fatalf("reading did not advance after refresh period: %v -> %v", first, third)
	}
}

func TestPollingOverheadBilled(t *testing.T) {
	k, acct, b := newBattery(1, DefaultConfig(), 10000)
	acct.Set(acct.Register("load"), 5.0)
	b.SetPolling(true)
	k.At(100*time.Second, func() {})
	k.Run(0)
	byC := acct.EnergyByComponent()
	want := DefaultConfig().MeasureOverheadWatts * 100
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
		cfg := DefaultConfig()
		cfg.PeukertExponent = peukert
		k, acct, b := newBattery(1, cfg, 100000)
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
	cfg := DefaultConfig()
	k, acct, b := newBattery(1, cfg, 2000)
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
	k, acct, b := newBattery(1, DefaultConfig(), 20000)
	acct.Set(acct.Register("load"), 11.37)
	k.At(60*time.Second, func() {})
	k.Run(0)
	reading := b.RemainingCapacity()
	truth := b.TrueResidual()
	if math.Abs(reading-truth) > DefaultConfig().CapacityQuantum+1 {
		t.Fatalf("capacity reading %v vs truth %v differ beyond one quantum", reading, truth)
	}
	if math.Abs(b.Power()-11.37) > DefaultConfig().CurrentQuantum*16+1e-9 {
		t.Fatalf("power reading %v vs truth 11.37 beyond one quantum", b.Power())
	}
}
