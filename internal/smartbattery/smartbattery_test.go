package smartbattery

import (
	"math"
	"math/rand"
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

// drainViaPow is effectiveDrain as it read before its specialisation: the
// Peukert scale through math.Pow on every call. TestEffectiveDrainMatchesPow
// holds the live function to it bit for bit.
func drainViaPow(peukert, watts float64) float64 {
	k := peukert
	if k <= 1.0 {
		return watts
	}
	i := watts / voltage
	scale := math.Pow(i/ratedCurrent, k-1)
	if scale < 1 {
		scale = 1
	}
	return watts * scale
}

// TestEffectiveDrainMatchesPow sweeps 2M (load, exponent) pairs through
// effectiveDrain and compares each result's bits with drainViaPow, for
// Peukert exponents k in (1, 2]: loads with x = i/ratedCurrent uniform in
// [0, 20] and in [0, 1], loads within a few ulps of x = 1, and loads of
// either sign at every binary exponent, against uniform k and the edges of
// the specialised range k-1 < 0.5. At or below the rated current
// effectiveDrain skips the power, which is exact only because math.Pow(x,
// k-1) never exceeds 1 there; the sweep checks that on every such sample,
// x = 0 and x = 1 included.
func TestEffectiveDrainMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rated := voltage * ratedCurrent // the load at which x is exactly 1
	edges := []float64{math.Nextafter(1, 2), 1.01, 1.08, 1.3,
		math.Nextafter(1.5, 1), 1.5, math.Nextafter(1.5, 2), 2}
	var atOrBelowRated, specialised, fallback int
	var sawZero, sawOne bool
	check := func(k, watts float64) {
		b := &Battery{peukert: k}
		got, want := b.effectiveDrain(watts), drainViaPow(k, watts)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("effectiveDrain(%v) at k=%v = %v (%#x), via math.Pow %v (%#x)",
				watts, k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		x := watts / voltage / ratedCurrent
		switch {
		case 0 <= x && x <= 1:
			atOrBelowRated++
			sawZero = sawZero || x == 0
			sawOne = sawOne || x == 1
			if p := math.Pow(x, k-1); !(p <= 1) {
				t.Fatalf("math.Pow(%v, %v) = %v, above 1: skipping the power at or below the rated current is not exact", x, k-1, p)
			}
		case x > 1 && k-1 < 0.5:
			specialised++
		default:
			fallback++
		}
	}
	for i := 0; i < 2_000_000; i++ {
		k := 2 - rng.Float64()
		if i%4 == 0 {
			k = edges[rng.Intn(len(edges))]
		}
		switch i % 6 {
		case 0, 1:
			check(k, 20*rated*rng.Float64())
		case 2:
			check(k, rated*rng.Float64())
		case 3:
			check(k, rated*(1+(rng.Float64()-0.5)*1e-14))
		case 4:
			check(k, math.Ldexp(1+rng.Float64(), rng.Intn(2046)-1022))
		case 5:
			check(k, -math.Ldexp(1+rng.Float64(), rng.Intn(2046)-1022))
		}
	}
	for _, k := range edges {
		for _, w := range []float64{0, math.Copysign(0, -1), rated, math.Nextafter(rated, 0),
			math.Nextafter(rated, 100), math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1)} {
			check(k, w)
		}
	}
	if !sawZero || !sawOne {
		t.Fatalf("sweep sampled x = 0: %v, x = 1: %v; want both", sawZero, sawOne)
	}
	if atOrBelowRated < 300_000 || specialised < 300_000 || fallback < 300_000 {
		t.Fatalf("sweep took %d samples at or below the rated current, %d on the specialised power and %d on the fallback; want 300k of each",
			atOrBelowRated, specialised, fallback)
	}
	t.Logf("%d samples at or below the rated current, %d on the specialised power, %d on the fallback",
		atOrBelowRated, specialised, fallback)
}
