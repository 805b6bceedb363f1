package supervise_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"odyssey/internal/core"
	"odyssey/internal/hw"
	"odyssey/internal/power"
	"odyssey/internal/sim"
	"odyssey/internal/supervise"
	"odyssey/internal/trace"
)

type fakeApp struct {
	name    string
	level   int
	changes []int
}

func (f *fakeApp) Name() string { return f.name }
func (f *fakeApp) Levels() []string {
	return []string{"a", "b", "c", "d"}
}
func (f *fakeApp) Level() int { return f.level }
func (f *fakeApp) SetLevel(l int) {
	f.level = l
	f.changes = append(f.changes, l)
}

// harness wires a kernel, viceroy, one watched fake app, and a supervisor.
type harness struct {
	k      *sim.Kernel
	v      *core.Viceroy
	app    *fakeApp
	reg    *core.Registration
	health supervise.AppHealth
	sup    *supervise.Supervisor
	log    *trace.Log
}

func newHarness(t *testing.T, prof supervise.Profile) *harness {
	t.Helper()
	h := &harness{k: sim.NewKernel(1), app: &fakeApp{name: "a", level: 3}}
	h.v = core.NewViceroy(h.k)
	h.reg = h.v.RegisterApp(h.app, 1)
	h.sup = supervise.New(h.k, h.v, nil, nil, nil, 1)
	h.log = trace.NewLog(h.k.Now, 1000)
	h.sup.Log = h.log
	h.sup.Watch(h.reg, &h.health, prof)
	h.v.SetDeliverer(h.sup)
	h.sup.Start()
	return h
}

func (h *harness) hasEvent(message string) bool {
	for _, e := range h.log.Events() {
		if strings.Contains(e.Message, message) {
			return true
		}
	}
	return false
}

func TestHealthyDeliveryAppliesAndAcks(t *testing.T) {
	h := newHarness(t, supervise.Profile{})
	h.k.At(time.Second, func() { h.sup.DeliverSetLevel(h.reg, 2) })
	h.k.Run(10 * time.Second)
	if h.app.level != 2 {
		t.Fatalf("level %d after supervised delivery, want 2", h.app.level)
	}
	if h.sup.MissedAcks() != 0 || h.sup.Restarts() != 0 {
		t.Fatalf("healthy delivery: %d missed acks, %d restarts",
			h.sup.MissedAcks(), h.sup.Restarts())
	}
	if len(h.sup.Strikes()) != 0 {
		t.Fatalf("healthy delivery produced strikes: %v", h.sup.Strikes())
	}
}

func TestHungUpcallWatchdogRestartsWithBackoff(t *testing.T) {
	h := newHarness(t, supervise.Profile{})
	h.k.At(time.Second, func() {
		h.health.SetHung(true)
		h.sup.DeliverSetLevel(h.reg, 0)
	})
	// Second hang after the first restart: the backoff must have doubled.
	h.k.At(10*time.Second, func() {
		h.health.SetHung(true)
		h.sup.DeliverSetLevel(h.reg, 1)
	})
	h.k.Run(30 * time.Second)
	if h.sup.MissedAcks() != 2 {
		t.Fatalf("missed acks %d, want 2", h.sup.MissedAcks())
	}
	if h.sup.Strikes()["hang"] != 2 {
		t.Fatalf("strikes %v, want hang:2", h.sup.Strikes())
	}
	if h.sup.Restarts() != 2 {
		t.Fatalf("restarts %d, want 2", h.sup.Restarts())
	}
	if h.health.Hung() {
		t.Fatal("restart did not reset health")
	}
	// The restart re-applies the last directed level.
	if h.app.level != 1 {
		t.Fatalf("level %d after restarts, want last directed 1", h.app.level)
	}
	// Backoff growth is visible in the restart-scheduled trace values: the
	// n-th delay lies within base x factor^n x (1 +/- jitter).
	var delays []float64
	for _, e := range h.log.Filter(trace.CatSupervise, "") {
		if strings.HasPrefix(e.Message, "restart scheduled") {
			delays = append(delays, e.Value)
		}
	}
	if len(delays) != 2 {
		t.Fatalf("restart delays %v, want two", delays)
	}
	for n, d := range delays {
		base := supervise.RestartBackoff.Seconds() * math.Pow(supervise.BackoffFactor, float64(n))
		if lo, hi := base*(1-supervise.JitterFrac), base*(1+supervise.JitterFrac); d < lo-1e-9 || d > hi+1e-9 {
			t.Fatalf("restart delay %d = %vs outside [%v, %v] (exponential backoff with jitter)", n, d, lo, hi)
		}
	}
}

func TestRetryBudgetExhaustionQuarantinesAndReallocates(t *testing.T) {
	k := sim.NewKernel(1)
	v := core.NewViceroy(k)
	a := &fakeApp{name: "a", level: 3}
	b := &fakeApp{name: "b", level: 3}
	ra := v.RegisterApp(a, 1)
	v.RegisterApp(b, 2)
	acct := power.NewAccountant(k)
	acct.Set(acct.Register("load"), 1)
	em := core.NewEnergyMonitor(v, acct, power.NewSupply(acct, 1000), core.DefaultEnergyConfig())
	sup := supervise.New(k, v, em, acct, nil, 1)
	log := trace.NewLog(k.Now, 1000)
	sup.Log = log
	var health supervise.AppHealth
	cell := sup.Watch(ra, &health, supervise.Profile{})
	v.SetDeliverer(sup)
	sup.Start()
	// Keep killing the app; each restart revives it, each audit strikes it
	// again, and the strike after the last budgeted restart quarantines it.
	// The three jittered backoffs end by 22 s.
	var kill func()
	kill = func() {
		if !cell.Quarantined() {
			health.SetCrashed(true)
			k.After(500*time.Millisecond, kill)
		}
	}
	k.At(time.Second, kill)
	k.Run(40 * time.Second)
	if !cell.Quarantined() {
		t.Fatal("retry budget exhausted but app not quarantined")
	}
	if got := sup.Restarts(); got != supervise.RetryBudget {
		t.Fatalf("quarantined after %d restarts, want the budget of %d", got, supervise.RetryBudget)
	}
	if got := sup.Quarantined(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("quarantined %v, want [a]", got)
	}
	if !ra.Excluded() {
		t.Fatal("quarantined app not excluded from adaptation")
	}
	shares := em.BudgetShares()
	if shares["a"] != 0 || shares["b"] != 1 {
		t.Fatalf("budget shares %v after quarantine, want a=0 b=1", shares)
	}
	found := false
	for _, e := range log.Filter(trace.CatSupervise, "a") {
		if strings.HasPrefix(e.Message, "quarantined") {
			found = true
		}
	}
	if !found {
		t.Fatal("no quarantine event traced")
	}
}

func TestThrashDetectedByAudit(t *testing.T) {
	h := newHarness(t, supervise.Profile{})
	h.k.At(time.Second, func() { h.sup.DeliverSetLevel(h.reg, 1) })
	// The app re-raises its fidelity behind the viceroy's back.
	h.k.At(1500*time.Millisecond, func() { h.app.level = 3 })
	h.k.Run(5 * time.Second)
	if h.sup.Strikes()["thrash"] == 0 {
		t.Fatalf("strikes %v, want a thrash strike", h.sup.Strikes())
	}
	if !h.hasEvent("level defies directive") {
		t.Fatal("thrash not traced")
	}
	// The restart re-applies the directed level.
	if h.app.level != 1 {
		t.Fatalf("level %d after thrash containment, want 1", h.app.level)
	}
}

// lieRig builds a full machine so PowerScope attribution is real, with a
// load loop consuming CPU under the app-exclusive principal.
func lieRig(t *testing.T) (*sim.Kernel, *supervise.Supervisor, *core.Registration, *fakeApp) {
	t.Helper()
	k := sim.NewKernel(1)
	m := hw.NewMachine(k, hw.ThinkPad560X(), 1)
	v := core.NewViceroy(k)
	app := &fakeApp{name: "a", level: 0}
	reg := v.RegisterApp(app, 1)
	sup := supervise.New(k, v, nil, m.Acct, m.CPU, 1)
	sup.Log = trace.NewLog(k.Now, 1000)
	var loop func()
	loop = func() {
		m.CPU.RunAsync("liar", 0.4, nil)
		k.After(500*time.Millisecond, loop)
	}
	k.At(0, loop)
	return k, sup, reg, app
}

func TestLieDetectedAgainstFidelityModel(t *testing.T) {
	k, sup, reg, _ := lieRig(t)
	var health supervise.AppHealth
	prof := supervise.Profile{Principal: "liar",
		ExpectedPower: func(int) float64 { return 0.1 }}
	sup.Watch(reg, &health, prof)
	sup.Start()
	k.Run(10 * time.Second)
	if sup.Strikes()["lie"] == 0 {
		t.Fatalf("strikes %v, want a lie strike (measured watts far above model)", sup.Strikes())
	}
}

func TestAuditGraceSuppressesLieAfterDirective(t *testing.T) {
	k, sup, reg, _ := lieRig(t)
	var health supervise.AppHealth
	prof := supervise.Profile{Principal: "liar",
		ExpectedPower: func(int) float64 { return 0.1 }}
	sup.Watch(reg, &health, prof)
	sup.Start()
	// A directive lands every second, each renewing the grace window, so the
	// consumption audit never gets a clean post-grace window.
	var direct func()
	direct = func() {
		sup.DeliverSetLevel(reg, 0)
		k.After(time.Second, direct)
	}
	k.At(500*time.Millisecond, direct)
	k.Run(10 * time.Second)
	if n := sup.Strikes()["lie"]; n != 0 {
		t.Fatalf("lie strikes %d inside the audit grace window, want 0", n)
	}
}

func TestUnwatchedRegistrationPassesThrough(t *testing.T) {
	h := newHarness(t, supervise.Profile{})
	other := &fakeApp{name: "other", level: 3}
	regOther := h.v.RegisterApp(other, 2)
	h.k.At(time.Second, func() { h.sup.DeliverSetLevel(regOther, 0) })
	h.k.Run(5 * time.Second)
	if other.level != 0 {
		t.Fatalf("unwatched delivery not applied: level %d", other.level)
	}
	if len(h.log.Filter(trace.CatSupervise, "other")) != 0 {
		t.Fatal("unwatched registration produced supervision events")
	}
}

func TestQuarantinedAppReceivesNoUpcalls(t *testing.T) {
	h := newHarness(t, supervise.Profile{})
	var kill func()
	kill = func() {
		h.health.SetCrashed(true)
		h.k.After(500*time.Millisecond, kill)
	}
	h.k.At(time.Second, kill)
	h.k.Run(40 * time.Second)
	if len(h.sup.Quarantined()) != 1 {
		t.Fatalf("quarantined %v, want [a]", h.sup.Quarantined())
	}
	before := len(h.app.changes)
	h.sup.DeliverSetLevel(h.reg, 2)
	if len(h.app.changes) != before {
		t.Fatal("quarantined app still received a fidelity upcall")
	}
}

// TestSameSeedSameSchedule: the jittered supervision schedule is a
// deterministic function of the seed.
func TestSameSeedSameSchedule(t *testing.T) {
	run := func() string {
		h := newHarness(t, supervise.Profile{})
		for i := 1; i <= 5; i++ {
			i := i
			h.k.At(time.Duration(i)*3*time.Second, func() {
				h.health.SetHung(true)
				h.sup.DeliverSetLevel(h.reg, i%4)
			})
		}
		h.k.Run(30 * time.Second)
		return h.log.Text()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed supervision traces differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "restart scheduled") {
		t.Fatalf("schedule drew no jittered backoff:\n%s", a)
	}
}
