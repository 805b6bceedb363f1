package faults_test

import (
	"testing"
	"time"

	"odyssey/internal/core"
	"odyssey/internal/faults"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/supervise"
	"odyssey/internal/trace"
)

type fakeAdaptive struct {
	name   string
	level  int
	Health supervise.AppHealth
}

func (f *fakeAdaptive) Name() string     { return f.name }
func (f *fakeAdaptive) Levels() []string { return []string{"a", "b", "c", "d"} }
func (f *fakeAdaptive) Level() int       { return f.level }
func (f *fakeAdaptive) SetLevel(l int)   { f.level = l }

// appTargets binds application injectors to one fakeAdaptive; it has no
// network, servers or battery.
type appTargets struct{ *fakeAdaptive }

func (appTargets) Network() *netsim.Network             { return nil }
func (appTargets) Server(string) (*netsim.Server, bool) { return nil, false }
func (appTargets) Battery() *smartbattery.Battery       { return nil }
func (a appTargets) App(name string) (core.Adaptive, *supervise.AppHealth, bool) {
	return a.fakeAdaptive, &a.Health, name == a.name
}

// appSpec is an application injector of kind aimed at "a".
func appSpec(kind string, up, down time.Duration) faults.InjectorSpec {
	return faults.InjectorSpec{Kind: kind, Target: "a", MeanUp: faults.Dur(up), MeanDown: faults.Dur(down)}
}

// count reads one "injector/event" counter of pl.
func count(pl *faults.Plan, key string) int {
	_, counts := pl.Counts()
	return counts[key]
}

// TestAppCrashKillsOnceAndStopRevives: the crash injector kills a live
// process, never re-kills a dead one (revival is the supervisor's job), and
// Stop's cleanup revives it.
func TestAppCrashKillsOnceAndStopRevives(t *testing.T) {
	k := sim.NewKernel(3)
	app := &fakeAdaptive{name: "a", level: 3}
	pl := bindPlan(t, k, appTargets{app}, 7, appSpec(faults.KindAppCrash, 10*time.Second, 0))
	pl.Log = trace.NewLog(k.Now, 0)
	pl.Start()
	k.At(5*time.Minute, func() { k.Stop() })
	k.Run(0)
	if kills := count(pl, "crash:a/process killed"); kills != 1 {
		t.Fatalf("kills %d with nobody reviving the process, want exactly 1", kills)
	}
	if app.Health.Alive() {
		t.Fatal("process alive after kill")
	}
	pl.Stop()
	if !app.Health.Alive() {
		t.Fatal("Stop did not revive the process")
	}
}

// TestAppHangWindowsToggle: hang windows open and close on the plan's RNG
// and Stop unsticks a hung process.
func TestAppHangWindowsToggle(t *testing.T) {
	k := sim.NewKernel(3)
	app := &fakeAdaptive{name: "a", level: 3}
	hang := appSpec(faults.KindAppHang, 20*time.Second, 5*time.Second)
	hang.MaxDown = faults.Dur(10 * time.Second)
	pl := bindPlan(t, k, appTargets{app}, 7, hang)
	pl.Log = trace.NewLog(k.Now, 0)
	pl.Start()
	k.At(5*time.Minute, func() { k.Stop() })
	k.Run(0)
	hangs := count(pl, "hang:a/hang begin")
	if hangs < 2 {
		t.Fatalf("hangs %d in 5 minutes of 20 s mean uptime", hangs)
	}
	if got := len(pl.Log.Filter(trace.CatFault, "hang:a")); got < 2*hangs-1 {
		t.Fatalf("%d logged events for %d hang windows; want begin+end pairs", got, hangs)
	}
	pl.Stop()
	if app.Health.Hung() {
		t.Fatal("Stop left the process hung")
	}
}

// TestAppThrashReRaisesAndResetSilences: during a window the pulse loop
// re-raises a degraded app to maximum; a restart (Health.Reset) silences the
// pulses until the next window.
func TestAppThrashReRaisesAndResetSilences(t *testing.T) {
	k := sim.NewKernel(3)
	app := &fakeAdaptive{name: "a", level: 0}
	thrash := appSpec(faults.KindAppThrash, time.Second, time.Hour)
	thrash.Period = faults.Dur(time.Second)
	pl := bindPlan(t, k, appTargets{app}, 7, thrash)
	raises := func() int { return count(pl, "thrash:a/fidelity re-raised") }
	pl.Start()
	k.At(30*time.Second, func() { k.Stop() })
	k.Run(0)
	if raises() == 0 {
		t.Fatal("no defiant re-raises during a thrash window")
	}
	if app.level != 3 {
		t.Fatalf("level %d during thrash window, want re-raised to 3", app.level)
	}
	// A restart clears the thrashing flag; the degraded level then sticks.
	app.Health.Reset()
	app.level = 0
	raised := raises()
	k.At(k.Now()+10*time.Second, func() { k.Stop() })
	k.Run(0)
	if raises() != raised {
		t.Fatalf("pulse loop re-raised after restart cleared the flag (%d -> %d)",
			raised, raises())
	}
	pl.Stop()
}

// TestAppLieShiftsEffectiveLevelOnly: a lie window changes the level
// operations run at, not the level the application reports.
func TestAppLieShiftsEffectiveLevelOnly(t *testing.T) {
	k := sim.NewKernel(3)
	app := &fakeAdaptive{name: "a", level: 1}
	lie := appSpec(faults.KindAppLie, time.Second, time.Hour)
	lie.Delta = 2
	pl := bindPlan(t, k, appTargets{app}, 7, lie)
	pl.Start()
	k.At(30*time.Second, func() { k.Stop() })
	k.Run(0)
	if count(pl, "lie:a/lie begin") == 0 {
		t.Fatal("no lie window opened")
	}
	if app.Level() != 1 {
		t.Fatalf("reported level %d changed by lie window, want 1", app.Level())
	}
	if got := app.Health.EffectiveLevel(app.Level(), 3); got != 3 {
		t.Fatalf("effective level %d during Delta-2 lie at report 1, want 3 (clamped)", got)
	}
	pl.Stop()
	if app.Health.LieDelta() != 0 {
		t.Fatal("Stop did not restore honesty")
	}
}

// TestMisbehaveDeterministicAcrossRuns: the same seed reproduces the same
// misbehavior schedule event for event.
func TestMisbehaveDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		k := sim.NewKernel(5)
		app := &fakeAdaptive{name: "a", level: 3}
		hang := appSpec(faults.KindAppHang, 20*time.Second, 5*time.Second)
		hang.MaxDown = faults.Dur(10 * time.Second)
		pl := bindPlan(t, k, appTargets{app}, 99, appSpec(faults.KindAppCrash, 30*time.Second, 0), hang)
		pl.Log = trace.NewLog(k.Now, 0)
		pl.Start()
		k.At(5*time.Minute, func() { k.Stop() })
		k.Run(0)
		pl.Stop()
		return pl.Log.Text()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed misbehavior traces differ:\n%s\n---\n%s", a, b)
	}
}
