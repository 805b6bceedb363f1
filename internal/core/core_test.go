package core

import (
	"math"
	"testing"
	"time"

	"odyssey/internal/power"
	"odyssey/internal/sim"
	"odyssey/internal/trace"
)

type fakeApp struct {
	name    string
	levels  []string
	level   int
	changes []int
}

func newFakeApp(name string, n int) *fakeApp {
	levels := make([]string, n)
	for i := range levels {
		levels[i] = string(rune('a' + i))
	}
	return &fakeApp{name: name, levels: levels, level: n - 1}
}

func (f *fakeApp) Name() string     { return f.name }
func (f *fakeApp) Levels() []string { return f.levels }
func (f *fakeApp) Level() int       { return f.level }
func (f *fakeApp) SetLevel(l int) {
	f.level = l
	f.changes = append(f.changes, l)
}

type fakeWarden string

func (w fakeWarden) TypeName() string { return string(w) }

func TestWardenRegistry(t *testing.T) {
	v := NewViceroy(sim.NewKernel(1))
	if err := v.RegisterWarden(fakeWarden("video")); err != nil {
		t.Fatal(err)
	}
	if err := v.RegisterWarden(fakeWarden("speech")); err != nil {
		t.Fatal(err)
	}
	if err := v.RegisterWarden(fakeWarden("video")); err == nil {
		t.Fatal("duplicate warden accepted")
	}
	if v.Warden("video") == nil || v.Warden("nope") != nil {
		t.Fatal("warden lookup wrong")
	}
	names := v.Wardens()
	if len(names) != 2 || names[0] != "speech" || names[1] != "video" {
		t.Fatalf("wardens %v", names)
	}
}

func TestResourceExpectations(t *testing.T) {
	k := sim.NewKernel(1)
	v := NewViceroy(k)
	v.DeclareResource("bandwidth", 100)

	var calls []float64
	_, err := v.Request("bandwidth", 50, 150, func(a float64) { calls = append(calls, a) })
	if err != nil {
		t.Fatal(err)
	}
	k.At(time.Second, func() { v.UpdateResource("bandwidth", 120) })  // inside window
	k.At(2*time.Second, func() { v.UpdateResource("bandwidth", 30) }) // below low
	k.Run(0)
	if len(calls) != 1 || calls[0] != 30 {
		t.Fatalf("upcalls %v, want [30]", calls)
	}
	// Expectation deregistered after firing: further updates are silent.
	k.At(k.Now()+time.Second, func() { v.UpdateResource("bandwidth", 5) })
	k.Run(0)
	if len(calls) != 1 {
		t.Fatalf("fired expectation reused: %v", calls)
	}
}

func TestResourceImmediateUpcall(t *testing.T) {
	k := sim.NewKernel(1)
	v := NewViceroy(k)
	v.DeclareResource("bandwidth", 10)
	var got float64 = -1
	if _, err := v.Request("bandwidth", 50, 100, func(a float64) { got = a }); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	if got != 10 {
		t.Fatalf("immediate upcall got %v, want 10", got)
	}
}

func TestRequestUndeclaredResource(t *testing.T) {
	v := NewViceroy(sim.NewKernel(1))
	if _, err := v.Request("nope", 0, 1, func(float64) {}); err == nil {
		t.Fatal("undeclared resource accepted")
	}
}

func TestExpectationCancel(t *testing.T) {
	k := sim.NewKernel(1)
	v := NewViceroy(k)
	v.DeclareResource("r", 100)
	fired := false
	e, _ := v.Request("r", 50, 150, func(float64) { fired = true })
	e.Cancel()
	k.At(time.Second, func() { v.UpdateResource("r", 0) })
	k.Run(0)
	if fired {
		t.Fatal("cancelled expectation fired")
	}
}

func TestByPriorityOrder(t *testing.T) {
	v := NewViceroy(sim.NewKernel(1))
	web := v.RegisterApp(newFakeApp("web", 4), 4)
	speech := v.RegisterApp(newFakeApp("speech", 4), 1)
	video := v.RegisterApp(newFakeApp("video", 4), 2)
	order := v.byPriority()
	if order[0] != speech || order[1] != video || order[2] != web {
		t.Fatalf("priority order wrong: %v %v %v", order[0].App.Name(), order[1].App.Name(), order[2].App.Name())
	}
}

// rig wires a draining supply to a monitor with n fake apps.
func rig(seed int64, initial float64, watts float64, apps ...*fakeApp) (*sim.Kernel, *Viceroy, *EnergyMonitor) {
	k := sim.NewKernel(seed)
	acct := power.NewAccountant(k)
	acct.Set(acct.Register("load"), watts)
	supply := power.NewSupply(acct, initial)
	v := NewViceroy(k)
	for i, a := range apps {
		v.RegisterApp(a, i+1)
	}
	em := NewEnergyMonitor(v, acct, supply, DefaultEnergyConfig())
	return k, v, em
}

func TestSmoothingConvergesToConstantPower(t *testing.T) {
	k, _, em := rig(1, 10_000, 8.0)
	em.SetGoal(10 * time.Minute)
	em.Start()
	k.At(30*time.Second, func() { em.Stop() })
	k.Run(time.Minute)
	if math.Abs(em.SmoothedPower()-8.0) > 0.01 {
		t.Fatalf("smoothed power %v, want ~8", em.SmoothedPower())
	}
}

func TestAlphaScalesWithRemainingTime(t *testing.T) {
	k, _, em := rig(1, 10_000, 8.0)
	em.SetGoal(30 * time.Minute)
	farAlpha := em.alpha()
	// 30 min remaining: half-life 180 s -> alpha very close to 1.
	if farAlpha < 0.999 {
		t.Fatalf("far alpha %v, want ~1", farAlpha)
	}
	// Advance to 30 s before the goal: half-life 3 s -> much smaller.
	k.At(em.Goal()-30*time.Second, func() {
		if a := em.alpha(); a >= farAlpha || a > 0.98 {
			t.Errorf("near alpha %v not more agile than far alpha %v", a, farAlpha)
		}
	})
	k.Run(0)
	// Past the goal, alpha collapses to 0 (fully agile).
	k.At(em.Goal()+time.Second, func() {
		if a := em.alpha(); a != 0 {
			t.Errorf("post-goal alpha %v, want 0", a)
		}
	})
	k.Run(0)
}

func TestFixedAlphaOverride(t *testing.T) {
	k := sim.NewKernel(1)
	acct := power.NewAccountant(k)
	supply := power.NewSupply(acct, 1000)
	v := NewViceroy(k)
	cfg := DefaultEnergyConfig()
	cfg.FixedAlpha = 0.7
	em := NewEnergyMonitor(v, acct, supply, cfg)
	em.SetGoal(time.Hour)
	if em.alpha() != 0.7 {
		t.Fatalf("fixed alpha %v", em.alpha())
	}
}

func TestDegradeLowestPriorityFirst(t *testing.T) {
	speech := newFakeApp("speech", 4)
	video := newFakeApp("video", 4)
	// 1000 J at 10 W lasts 100 s; goal of 500 s is far beyond it, so the
	// monitor must degrade immediately and repeatedly.
	k, _, em := rig(1, 1000, 10.0, speech, video)
	em.SetGoal(500 * time.Second)
	em.Start()
	k.At(10*time.Second, func() { em.Stop() })
	k.Run(11 * time.Second)
	if speech.level != 0 {
		t.Fatalf("lowest-priority app at level %d, want fully degraded", speech.level)
	}
	if len(video.changes) > 0 && speech.changes[len(speech.changes)-1] != 0 {
		t.Fatal("video degraded before speech fully degraded")
	}
	if em.Degrades() == 0 {
		t.Fatal("no degrades recorded")
	}
}

func TestNoDegradeWhenSupplyAmple(t *testing.T) {
	app := newFakeApp("app", 4)
	// 100,000 J at 5 W for a 60 s goal: demand ~300 J, huge headroom.
	k, _, em := rig(1, 100_000, 5.0, app)
	em.SetGoal(60 * time.Second)
	em.Start()
	k.At(50*time.Second, func() { em.Stop() })
	k.Run(time.Minute)
	if len(app.changes) != 0 && app.level < len(app.levels)-1 {
		t.Fatalf("app degraded despite ample supply: %v", app.changes)
	}
}

func TestUpgradeRateCapAndReverseOrder(t *testing.T) {
	speech := newFakeApp("speech", 4)
	web := newFakeApp("web", 4)
	speech.level, web.level = 0, 0 // start degraded
	k, _, em := rig(1, 1_000_000, 1.0, speech, web)
	em.SetGoal(2 * time.Minute)
	em.Start()
	k.At(40*time.Second, func() { em.Stop() })
	k.Run(time.Minute)
	// With massive headroom, upgrades should flow, but at most one per
	// 15 s: about 2 in 40 s (first eval at 0.5 s, then 15.5, 30.5...).
	total := em.Upgrades()
	if total < 2 || total > 3 {
		t.Fatalf("upgrades %d over 40 s with 15 s cap", total)
	}
	// Reverse order: the higher-priority app (web, registered second with
	// priority 2) upgrades before speech.
	if len(web.changes) == 0 {
		t.Fatal("high-priority app never upgraded")
	}
	if len(speech.changes) > 0 && web.level != len(web.levels)-1 {
		t.Fatal("speech upgraded before web reached max")
	}
}

func TestUpgradeHysteresisBlocksSmallHeadroom(t *testing.T) {
	app := newFakeApp("app", 4)
	app.level = 0
	// Draw 10 W with 1030 J and a 100 s goal: demand ~1000 J, headroom
	// ~30 J < 5%*1030 + 1%*1030 -> no upgrade.
	k, _, em := rig(1, 1030, 10.0, app)
	em.SetGoal(100 * time.Second)
	em.Start()
	k.At(2*time.Second, func() { em.Stop() })
	k.Run(3 * time.Second)
	if len(app.changes) != 0 {
		t.Fatalf("app adapted inside hysteresis zone: %v", app.changes)
	}
}

func TestInfeasibleNotification(t *testing.T) {
	app := newFakeApp("app", 2)
	// 1000 J at 10 W lasts 100 s; a 300 s goal is infeasible at any
	// level. The alert waits two smoothing half-lives after the workload
	// bottoms out, landing well before the supply dies.
	k, _, em := rig(1, 1000, 10.0, app)
	em.SetGoal(300 * time.Second)
	notified := false
	em.OnInfeasible = func() { notified = true }
	em.Start()
	k.At(95*time.Second, func() { em.Stop() })
	k.Run(96 * time.Second)
	if !notified {
		t.Fatal("infeasible goal not notified")
	}
	if app.level != 0 {
		t.Fatal("app not fully degraded before infeasibility declared")
	}
}

// TestTraceRecordsEvaluations: the monitor hands the trace hook one point
// per evaluation with supply and demand filled and Levels left nil (the
// consumer that keeps points fills them; see experiment.RunGoal).
func TestTraceRecordsEvaluations(t *testing.T) {
	app := newFakeApp("app", 3)
	k, _, em := rig(1, 10_000, 6.0, app)
	em.SetGoal(time.Minute)
	var points []TracePoint
	em.Trace = func(tp TracePoint) { points = append(points, tp) }
	em.Start()
	k.At(10*time.Second, func() { em.Stop() })
	k.Run(11 * time.Second)
	if len(points) < 15 || len(points) > 25 { // ~2 Hz for 10 s
		t.Fatalf("%d trace points for 10 s at 2 Hz", len(points))
	}
	for _, tp := range points {
		if tp.Supply <= 0 {
			t.Fatal("non-positive supply in trace")
		}
		if tp.Levels != nil {
			t.Fatalf("monitor filled trace levels %v; the evaluate tick must not allocate them", tp.Levels)
		}
	}
	// Supply must be non-increasing.
	for i := 1; i < len(points); i++ {
		if points[i].Supply > points[i-1].Supply+1e-9 {
			t.Fatal("supply increased over time")
		}
	}
}

func TestMonitorStartStopIdempotent(t *testing.T) {
	k, _, em := rig(1, 1000, 1.0)
	em.SetGoal(time.Minute)
	em.Start()
	em.Start()
	em.Stop()
	em.Stop()
	k.Run(0)
}

// TestMonitorStoppedFromCallbackKeepsPeriod: a monitor stopped from its own
// callback and restarted within one period runs one chain of ticks at its
// period. A reschedule left live by the stop would run beside the restart's
// chain, at twice the rate.
func TestMonitorStoppedFromCallbackKeepsPeriod(t *testing.T) {
	k, _, em := rig(1, 10_000, 6.0)
	em.SetGoal(time.Hour)
	evals := 0
	em.Trace = func(TracePoint) {
		evals++
		if evals == 1 {
			em.Stop() // the first evaluation, at 0.5 s
		}
	}
	em.Start()
	k.At(750*time.Millisecond, em.Start)
	k.Run(10750 * time.Millisecond)
	if evals != 21 { // 0.5 s, then every 0.5 s from 1.25 s to 10.75 s
		t.Fatalf("monitor evaluated %d times by 10.75 s, want 21", evals)
	}

	k = sim.NewKernel(1)
	v := NewViceroy(k)
	var m *sim.Ticker
	samples := 0
	m = v.MonitorResource("bw", time.Second, func() float64 {
		if m == nil {
			return 0 // the declaration's reading
		}
		samples++
		if samples == 1 {
			m.Stop() // the first sample, at 1 s
		}
		return 0
	})
	m.Start()
	k.At(1500*time.Millisecond, m.Start)
	k.Run(10500 * time.Millisecond)
	if samples != 10 { // 1 s, then every second from 2.5 s to 10.5 s
		t.Fatalf("resource monitor sampled %d times by 10.5 s, want 10", samples)
	}
}

func TestClampLevel(t *testing.T) {
	r := NewViceroy(sim.NewKernel(1)).RegisterApp(newFakeApp("a", 3), 1)
	if r.NumLevels() != 3 {
		t.Fatalf("NumLevels %d, want 3", r.NumLevels())
	}
	if r.clamp(-1) != 0 || r.clamp(5) != 2 || r.clamp(1) != 1 {
		t.Fatal("clamp wrong")
	}
}

func TestDynamicPriorityRedirectsDegradation(t *testing.T) {
	a := newFakeApp("a", 4)
	b := newFakeApp("b", 4)
	// Severe shortfall: constant degradation pressure.
	k, v, em := rig(1, 500, 10.0, a, b) // priorities: a=1, b=2
	em.SetGoal(1000 * time.Second)
	em.Start()
	// Initially a (lower priority) is degraded first.
	k.At(3*time.Second, func() {
		if a.level != 0 {
			t.Errorf("low-priority app not degraded first (level %d)", a.level)
		}
		// Promote a above b and reset both to full: now b must fall first.
		for _, r := range v.Apps() {
			if r.App.Name() == "a" {
				r.SetPriority(5)
			}
		}
		a.level, b.level = 3, 3
	})
	// Evaluations run at 0.5 s intervals: the evaluations at 3.0, 3.5 and
	// 4.0 s empty b's levels while a is still untouched at t=4.2 s.
	k.At(4200*time.Millisecond, func() {
		if b.level != 0 {
			t.Errorf("after priority change, b not degraded first (level %d)", b.level)
		}
		if a.level != 3 {
			t.Errorf("after priority change, a degraded prematurely (level %d)", a.level)
		}
		em.Stop()
	})
	k.Run(5 * time.Second)
}

func TestResourceMonitorPublishes(t *testing.T) {
	k := sim.NewKernel(1)
	v := NewViceroy(k)
	val := 100.0
	m := v.MonitorResource("bw", time.Second, func() float64 { return val })
	if got := v.Availability("bw"); got != 100 {
		t.Fatalf("initial availability %v", got)
	}
	m.Start()
	var upcall float64 = -1
	if _, err := v.Request("bw", 50, 200, func(a float64) { upcall = a }); err != nil {
		t.Fatal(err)
	}
	k.At(1500*time.Millisecond, func() { val = 10 }) // next sample drops below the window
	k.At(5*time.Second, func() { m.Stop() })
	k.Run(10 * time.Second)
	if upcall != 10 {
		t.Fatalf("expectation upcall got %v, want 10", upcall)
	}
	if got := v.Availability("bw"); got != 10 {
		t.Fatalf("availability %v", got)
	}
}

func TestResourceMonitorStopIsFinal(t *testing.T) {
	k := sim.NewKernel(1)
	v := NewViceroy(k)
	n := 0
	m := v.MonitorResource("x", time.Second, func() float64 { n++; return 0 })
	m.Start()
	k.At(2500*time.Millisecond, func() { m.Stop() })
	k.Run(10 * time.Second)
	if n > 4 { // declare + 2 samples
		t.Fatalf("sampler ran %d times after stop", n)
	}
}

func TestEventLogRecordsAdaptations(t *testing.T) {
	app := newFakeApp("app", 4)
	k, _, em := rig(1, 500, 10.0, app)
	em.SetGoal(1000 * time.Second) // infeasible: constant degradation
	log := trace.NewLog(k.Now, 0)
	em.Events = log
	em.Start()
	k.At(5*time.Second, func() { em.Stop() })
	k.Run(6 * time.Second)
	degrades := log.Filter(trace.CatAdapt, "app")
	if len(degrades) == 0 {
		t.Fatal("no adaptation events recorded")
	}
	for _, e := range degrades {
		if e.Message != "degrade" {
			t.Fatalf("unexpected event %v", e)
		}
	}
}

// --- Upcall-delivery races and supervision-plane budget shares ---

// TestCancelBetweenScheduleAndDelivery: UpdateResource schedules upcall
// delivery as a fresh kernel event; a Cancel issued after scheduling but
// before the event fires must still be honored.
func TestCancelBetweenScheduleAndDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	v := NewViceroy(k)
	v.DeclareResource("r", 100)
	fired := false
	e, _ := v.Request("r", 50, 150, func(float64) { fired = true })
	k.At(time.Second, func() {
		v.UpdateResource("r", 0) // delivery now scheduled for this instant
		e.Cancel()               // cancel lands before the deferred event runs
	})
	k.Run(0)
	if fired {
		t.Fatal("expectation fired despite Cancel between scheduling and delivery")
	}
}

// TestCancelDuringUpdateResourceIteration: when one update fires several
// expectations, an earlier upcall cancelling a later expectation must
// suppress the later delivery.
func TestCancelDuringUpdateResourceIteration(t *testing.T) {
	k := sim.NewKernel(1)
	v := NewViceroy(k)
	v.DeclareResource("r", 100)
	var e2 *Expectation
	fired2 := false
	if _, err := v.Request("r", 50, 150, func(float64) { e2.Cancel() }); err != nil {
		t.Fatal(err)
	}
	var err error
	e2, err = v.Request("r", 50, 150, func(float64) { fired2 = true })
	if err != nil {
		t.Fatal(err)
	}
	k.At(time.Second, func() { v.UpdateResource("r", 0) })
	k.Run(0)
	if fired2 {
		t.Fatal("expectation fired despite being cancelled by an earlier upcall of the same update")
	}
}

// TestDeclareResourceRedeclareNotifies: re-declaring an existing resource is
// an availability change; expectations whose windows no longer contain the
// new level must be notified, not silently skipped.
func TestDeclareResourceRedeclareNotifies(t *testing.T) {
	k := sim.NewKernel(1)
	v := NewViceroy(k)
	v.DeclareResource("r", 100)
	var got float64 = -1
	if _, err := v.Request("r", 50, 150, func(a float64) { got = a }); err != nil {
		t.Fatal(err)
	}
	k.At(time.Second, func() { v.DeclareResource("r", 10) })
	k.Run(0)
	if got != 10 {
		t.Fatalf("redeclaration upcall got %v, want 10", got)
	}
	if v.Availability("r") != 10 {
		t.Fatalf("availability %v after redeclaration, want 10", v.Availability("r"))
	}
}

// TestByPriorityTieBreakRegistrationOrder: equal priorities must keep
// registration order (the sort is stable), so the degradation order is
// deterministic run to run.
func TestByPriorityTieBreakRegistrationOrder(t *testing.T) {
	v := NewViceroy(sim.NewKernel(1))
	a := v.RegisterApp(newFakeApp("a", 2), 2)
	b := v.RegisterApp(newFakeApp("b", 2), 2)
	c := v.RegisterApp(newFakeApp("c", 2), 1)
	d := v.RegisterApp(newFakeApp("d", 2), 2)
	order := v.byPriority()
	want := []*Registration{c, a, b, d}
	for i, r := range want {
		if order[i] != r {
			t.Fatalf("order[%d] = %s, want %s", i, order[i].App.Name(), r.App.Name())
		}
	}
}

// TestByPriorityFollowsChanges: the cached degradation order is rebuilt
// after a priority change (through SetPriority or the field) and after a
// new registration, and is reused untouched otherwise.
func TestByPriorityFollowsChanges(t *testing.T) {
	v := NewViceroy(sim.NewKernel(1))
	a := v.RegisterApp(newFakeApp("a", 2), 1)
	b := v.RegisterApp(newFakeApp("b", 2), 2)
	check := func(step string, want ...*Registration) {
		t.Helper()
		order := v.byPriority()
		if len(order) != len(want) {
			t.Fatalf("%s: order has %d registrations, want %d", step, len(order), len(want))
		}
		for i, r := range want {
			if order[i] != r {
				t.Fatalf("%s: order[%d] = %s, want %s", step, i, order[i].App.Name(), r.App.Name())
			}
		}
	}
	check("initial", a, b)
	first := v.byPriority()
	if &first[0] != &v.byPriority()[0] {
		t.Fatal("unchanged priorities rebuilt the order")
	}
	a.SetPriority(3)
	check("after SetPriority", b, a)
	b.Priority = 4
	check("after field write", a, b)
	c := v.RegisterApp(newFakeApp("c", 2), 0)
	check("after RegisterApp", c, a, b)
	if first[0] != a || first[1] != b {
		t.Fatal("rebuilding the order modified a slice a caller already held")
	}
}

// TestExcludedSkippedByAdaptation: an excluded registration (restarting or
// quarantined) must receive no fidelity upcalls; degradation falls to the
// next registration instead.
func TestExcludedSkippedByAdaptation(t *testing.T) {
	speech := newFakeApp("speech", 4)
	video := newFakeApp("video", 4)
	k, v, em := rig(1, 1000, 10.0, speech, video)
	v.Apps()[0].SetExcluded(true)
	em.SetGoal(500 * time.Second)
	em.Start()
	k.At(10*time.Second, func() { em.Stop() })
	k.Run(11 * time.Second)
	if len(speech.changes) != 0 {
		t.Fatalf("excluded app received upcalls: %v", speech.changes)
	}
	if len(video.changes) == 0 || video.level != 0 {
		t.Fatalf("degradation did not fall to the surviving app (level %d, changes %v)",
			video.level, video.changes)
	}
}

// TestBudgetSharesReallocation: shares are priority-weighted over the
// non-excluded registrations, excluding an app reallocates its weight to the
// survivors, and ReallocateBudget traces the new division.
func TestBudgetSharesReallocation(t *testing.T) {
	a := newFakeApp("a", 2)
	b := newFakeApp("b", 2)
	c := newFakeApp("c", 2)
	k, v, em := rig(1, 1000, 1.0, a, b, c) // priorities 1, 2, 3
	shares := em.BudgetShares()
	for name, want := range map[string]float64{"a": 1.0 / 6, "b": 2.0 / 6, "c": 3.0 / 6} {
		if math.Abs(shares[name]-want) > 1e-12 {
			t.Fatalf("share[%s] = %v, want %v", name, shares[name], want)
		}
	}
	v.Apps()[0].SetExcluded(true)
	em.Events = trace.NewLog(k.Now, 100)
	em.ReallocateBudget("a")
	shares = em.BudgetShares()
	for name, want := range map[string]float64{"a": 0, "b": 0.4, "c": 0.6} {
		if math.Abs(shares[name]-want) > 1e-12 {
			t.Fatalf("share[%s] = %v after exclusion, want %v", name, shares[name], want)
		}
	}
	if n := len(em.Events.Filter(trace.CatSupervise, "")); n != 3 {
		t.Fatalf("reallocation traced %d supervise events, want 3 (1 reallocation + 2 shares)", n)
	}
}
