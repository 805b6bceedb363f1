package faults_test

import (
	"strings"
	"testing"
	"time"

	"odyssey/internal/faults"
	"odyssey/internal/hw"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/trace"
)

func newRig(seed int64) (*hw.Machine, *netsim.Network) {
	m := hw.NewMachine(sim.NewKernel(seed), hw.ThinkPad560X(), 1)
	return m, netsim.New(m)
}

// bindPlan binds injs to tg as one plan seeded by seed, failing t if any
// injector does not bind.
func bindPlan(t *testing.T, k *sim.Kernel, tg faults.Targets, seed int64, injs ...faults.InjectorSpec) *faults.Plan {
	t.Helper()
	pl, err := faults.PlanSpec{Name: "test", Seed: seed, Injectors: injs}.Plan(k, tg)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return pl
}

// linkSpec is a link-outage injector with the given dwell means and cap.
func linkSpec(up, down, maxDown time.Duration) faults.InjectorSpec {
	return faults.InjectorSpec{Kind: faults.KindLink,
		MeanUp: faults.Dur(up), MeanDown: faults.Dur(down), MaxDown: faults.Dur(maxDown)}
}

// TestPlanTogglesLink: the outage injector takes the carrier up and down on
// the plan's own RNG and logs every transition under trace.CatFault.
func TestPlanTogglesLink(t *testing.T) {
	m, n := newRig(1)
	pl := bindPlan(t, m.K, &stubTargets{net: n}, 42, linkSpec(30*time.Second, 10*time.Second, 20*time.Second))
	pl.Log = trace.NewLog(m.K.Now, 0)
	pl.Start()
	m.K.At(10*time.Minute, func() { m.K.Stop() })
	m.K.Run(0)
	_, counts := pl.Counts()
	outages := counts["link/outage begin"]
	if outages == 0 {
		t.Fatal("no outages in 10 minutes of 30 s mean uptime")
	}
	// Each outage end logs the accumulated downtime of completed outages.
	events := pl.Log.Filter(trace.CatFault, "link")
	var downTime time.Duration
	for _, e := range events {
		if e.Message == "outage end" {
			downTime = time.Duration(e.Value * float64(time.Second))
		}
	}
	if downTime <= 0 || downTime > 5*time.Minute {
		t.Fatalf("accumulated downtime %v implausible for ~25%% duty cycle", downTime)
	}
	if begins := len(events); begins < 2*outages {
		t.Fatalf("%d logged link events for %d outages; want begin+end pairs", begins, outages)
	}
	pl.Stop()
	if !n.LinkUp() {
		t.Fatal("Stop left the carrier down")
	}
}

// TestPlanStopRestoresHealth: stopping mid-fault recovers every injected
// failure — carrier, server, latency, battery readout — and Stop twice is
// safe.
func TestPlanStopRestoresHealth(t *testing.T) {
	m, n := newRig(2)
	srv := netsim.NewServer(m.K, "s")
	bat := smartbattery.New(m.K, m.Acct, 1, 9_000)
	tg := &stubTargets{net: n, servers: map[string]*netsim.Server{"s": srv}, bat: bat}
	up, down := faults.Dur(5*time.Second), faults.Dur(time.Minute)
	pl := bindPlan(t, m.K, tg, 7,
		faults.InjectorSpec{Kind: faults.KindLink, MeanUp: up, MeanDown: down},
		faults.InjectorSpec{Kind: faults.KindServerCrash, Target: "s", MeanUp: up, MeanDown: down},
		faults.InjectorSpec{Kind: faults.KindServerLatency, Target: "s", MeanUp: up, MeanDown: down, Factor: 4},
		faults.InjectorSpec{Kind: faults.KindBatteryDropout, MeanUp: up, MeanDown: down},
	)
	pl.Start()
	// Long fault dwells and short healthy dwells: by t=2 min essentially
	// every injector is mid-fault.
	m.K.At(2*time.Minute, func() { m.K.Stop() })
	m.K.Run(0)
	if n.LinkUp() && !srv.Down() && srv.LatencyFactor() == 1 && !bat.Dropout() {
		t.Fatal("scenario injected no faults to recover from")
	}
	pl.Stop()
	pl.Stop() // idempotent
	if !n.LinkUp() {
		t.Fatal("carrier still down after Stop")
	}
	if srv.Down() {
		t.Fatal("server still down after Stop")
	}
	if srv.LatencyFactor() != 1 {
		t.Fatalf("latency factor %v after Stop, want 1", srv.LatencyFactor())
	}
	if bat.Dropout() {
		t.Fatal("battery readout still faulted after Stop")
	}
}

// TestByteLossArmsAndDisarms: the loss injector inflates transfers while
// armed and restores losslessness on Stop.
func TestByteLossArmsAndDisarms(t *testing.T) {
	m, n := newRig(3)
	pl := bindPlan(t, m.K, &stubTargets{net: n}, 1, faults.InjectorSpec{Kind: faults.KindLoss, Fraction: 0.2})
	pl.Start()
	m.K.Spawn("x", func(p *sim.Proc) {
		if err := n.BulkTransfer(p, "app", 100_000, netsim.CallOptions{Timeout: time.Minute}); err != nil {
			t.Errorf("lossy transfer failed: %v", err)
		}
	})
	m.K.Run(0)
	armed := n.RetryBytes()
	if armed <= 0 {
		t.Fatal("armed loss produced no overhead bytes")
	}
	pl.Stop()
	m.K.Spawn("x", func(p *sim.Proc) {
		if err := n.BulkTransfer(p, "app", 100_000, netsim.CallOptions{Timeout: time.Minute}); err != nil {
			t.Errorf("clean transfer failed: %v", err)
		}
	})
	m.K.Run(0)
	if got := n.RetryBytes(); got != armed {
		t.Fatalf("overhead grew after Stop: %v -> %v", armed, got)
	}
}

// TestPlanDeterministicAcrossRuns: the same plan seed must reproduce the
// exact fault schedule — counts and event order — independent of runs.
func TestPlanDeterministicAcrossRuns(t *testing.T) {
	run := func(seed int64) string {
		m, n := newRig(1)
		srv := netsim.NewServer(m.K, "s")
		tg := &stubTargets{net: n, servers: map[string]*netsim.Server{"s": srv}}
		pl := bindPlan(t, m.K, tg, seed,
			linkSpec(40*time.Second, 10*time.Second, 0),
			faults.InjectorSpec{Kind: faults.KindServerCrash, Target: "s",
				MeanUp: faults.Dur(time.Minute), MeanDown: faults.Dur(15 * time.Second)},
		)
		pl.Log = trace.NewLog(m.K.Now, 0)
		pl.Start()
		m.K.At(15*time.Minute, func() { m.K.Stop() })
		m.K.Run(0)
		pl.Stop()
		var b strings.Builder
		b.WriteString(pl.Log.Text())
		keys, counts := pl.Counts()
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte('0' + byte(counts[k]%10))
		}
		return b.String()
	}
	a, b := run(99), run(99)
	if a != b {
		t.Fatal("same plan seed produced different fault schedules")
	}
	if a == run(100) {
		t.Fatal("different plan seeds produced identical schedules; determinism test is vacuous")
	}
}

// TestCountsAndTotal: the plan's event ledger aggregates per injector/event
// key and sums to TotalEvents.
func TestCountsAndTotal(t *testing.T) {
	m, n := newRig(4)
	pl := bindPlan(t, m.K, &stubTargets{net: n}, 5, linkSpec(20*time.Second, 5*time.Second, 0))
	pl.Start()
	m.K.At(10*time.Minute, func() { m.K.Stop() })
	m.K.Run(0)
	pl.Stop()
	keys, counts := pl.Counts()
	if len(keys) == 0 {
		t.Fatal("no event keys recorded")
	}
	sum := 0
	for _, k := range keys {
		if !strings.HasPrefix(k, "link/") {
			t.Fatalf("unexpected event key %q", k)
		}
		sum += counts[k]
	}
	if sum != pl.TotalEvents() {
		t.Fatalf("counts sum %d != TotalEvents %d", sum, pl.TotalEvents())
	}
}

// TestBatteryDropoutBlanksReadings: while the readout is faulted the battery
// reports zero current and a stale capacity; recovery resumes live readings.
func TestBatteryDropoutBlanksReadings(t *testing.T) {
	m, _ := newRig(6)
	bat := smartbattery.New(m.K, m.Acct, 1, 9_000)
	bat.SetPolling(true)
	// A steady load so current is nonzero when healthy.
	m.CPU.RunAsync("app", (30 * time.Minute).Seconds(), nil)
	var during, after float64
	m.K.At(time.Minute, func() { bat.SetDropout(true) })
	m.K.At(2*time.Minute, func() { during = bat.Current() })
	m.K.At(3*time.Minute, func() { bat.SetDropout(false) })
	m.K.At(4*time.Minute, func() { after = bat.Current(); m.K.Stop() })
	m.K.Run(0)
	if during != 0 {
		t.Fatalf("current %v during dropout, want 0", during)
	}
	if after == 0 {
		t.Fatal("current still zero after recovery")
	}
}
