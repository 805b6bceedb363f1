package offload_test

import (
	"reflect"
	"testing"
	"time"

	"odyssey/internal/hw"
	"odyssey/internal/netsim"
	"odyssey/internal/offload"
	"odyssey/internal/sim"
)

// testRig is the minimal offload bench: one machine, one network, one pool.
type testRig struct {
	k    *sim.Kernel
	m    *hw.Machine
	net  *netsim.Network
	pool *netsim.Pool
	svc  *offload.Service
}

func newTestRig(seed int64, servers int, cfg offload.Config) *testRig {
	k := sim.NewKernel(seed)
	m := hw.NewMachine(k, hw.ThinkPad560X(), 1)
	net := netsim.New(m)
	pool := netsim.NewPool(k, "pool", servers, seed+1)
	return &testRig{k: k, m: m, net: net, pool: pool,
		svc: offload.New(k, m, net, pool, seed+2, cfg)}
}

func remoteArm() *offload.Arm {
	return &offload.Arm{CPU: 0.05, SendBytes: 60_000, ReplyBytes: 2_000, ServerSec: 1.0}
}

// TestBreakerLifecycle walks one pool member's breaker through the full
// state machine on the virtual clock: closed -> (threshold failures) open ->
// traffic refused -> (cooldown) half-open probe fails -> open again ->
// (cooldown, server healthy) half-open probe succeeds -> closed.
func TestBreakerLifecycle(t *testing.T) {
	r := newTestRig(11, 1, offload.Config{Policy: "remote"})
	srv := r.pool.Server(0)
	srv.SetDown(true)
	local := offload.Arm{CPU: 2.0}
	step := func(p *sim.Proc) offload.Outcome { return r.svc.Do(p, "speech", local, remoteArm(), nil) }
	r.k.Spawn("client", func(p *sim.Proc) {
		for i := 1; i < offload.BreakerThreshold; i++ {
			if out := step(p); !out.FellBack {
				t.Errorf("failed attempt %d did not degrade to local", i)
			}
			if got := r.svc.BreakerState(0); got != "closed" {
				t.Errorf("breaker %s after %d failures, want closed (threshold %d)", got, i, offload.BreakerThreshold)
			}
		}
		step(p)
		if got := r.svc.BreakerState(0); got != "open" {
			t.Errorf("breaker %s after %d failures, want open", got, offload.BreakerThreshold)
		}
		if r.svc.Stats.BreakerTrips != 1 {
			t.Errorf("trips = %d, want 1", r.svc.Stats.BreakerTrips)
		}
		// Open refuses traffic: no candidates, so even forced-remote runs
		// local from the start (a verdict, not a fallback).
		before := r.svc.Stats.Fallbacks
		if out := step(p); out.Mode != offload.Local || out.FellBack {
			t.Errorf("open breaker: outcome %+v, want clean local", out)
		}
		if r.svc.Stats.Fallbacks != before {
			t.Error("open breaker counted a fallback; want a local verdict")
		}
		// Cooldown expires but the server is still down: the half-open
		// probe fails and re-opens.
		p.Sleep(offload.BreakerCooldown + time.Second)
		step(p)
		if got := r.svc.BreakerState(0); got != "open" {
			t.Errorf("breaker %s after failed half-open probe, want open", got)
		}
		if r.svc.Stats.BreakerTrips != 2 {
			t.Errorf("trips = %d, want 2", r.svc.Stats.BreakerTrips)
		}
		// Server recovers; the next probe after cooldown re-closes.
		srv.SetDown(false)
		p.Sleep(offload.BreakerCooldown + time.Second)
		if out := step(p); out.Mode != offload.Remote || out.FellBack {
			t.Errorf("recovered probe: outcome %+v, want remote", out)
		}
		if got := r.svc.BreakerState(0); got != "closed" {
			t.Errorf("breaker %s after successful probe, want closed", got)
		}
	})
	r.k.Run(0)
}

// TestDegradeToLocalWhenPoolDark: with every pool member crashed, the cost
// model routes around the pool (local verdicts) and a forced-remote caller
// still gets an answer — an explicit degrade-to-local, never a strand.
func TestDegradeToLocalWhenPoolDark(t *testing.T) {
	for _, policy := range []string{"", "remote"} {
		r := newTestRig(13, 3, offload.Config{Policy: policy, Hedge: true})
		for _, s := range r.pool.Servers() {
			s.SetDown(true)
		}
		var out offload.Outcome
		r.k.Spawn("client", func(p *sim.Proc) {
			out = r.svc.Do(p, "speech", offload.Arm{CPU: 2.0}, remoteArm(), nil)
		})
		r.k.Run(0)
		if out.Mode != offload.Local {
			t.Errorf("policy %q: mode %v against a dark pool, want local", policy, out.Mode)
		}
		if policy == "remote" && !out.FellBack {
			t.Errorf("forced remote against a dark pool did not report the fallback")
		}
		if policy == "remote" && r.svc.Stats.Failovers != 1 {
			// The primary's instant ErrServerDown re-dispatches to the next
			// member (a failover, not a hedge) before degrading to local.
			t.Errorf("failovers = %d against a dark pool with hedging, want 1", r.svc.Stats.Failovers)
		}
		if policy == "" && out.FellBack {
			t.Errorf("cost model dispatched to a dark pool instead of deciding local")
		}
	}
	// Link down is the same story one layer earlier.
	r := newTestRig(13, 3, offload.Config{Policy: "remote"})
	r.net.SetLinkUp(false)
	var out offload.Outcome
	r.k.Spawn("client", func(p *sim.Proc) {
		out = r.svc.Do(p, "speech", offload.Arm{CPU: 2.0}, remoteArm(), nil)
	})
	r.k.Run(0)
	if out.Mode != offload.Local || out.FellBack {
		t.Errorf("link down: outcome %+v, want clean local verdict", out)
	}
}

// hedgeScenario runs one slow-primary request: the primary's latency spikes
// 20x mid-send (after the estimate was taken), so a hedging service fires
// its hedge and a non-hedging one burns the budget and degrades to local.
func hedgeScenario(t *testing.T, seed int64, hedge bool) (offload.Outcome, offload.Stats) {
	t.Helper()
	r := newTestRig(seed, 2, offload.Config{Policy: "remote", Hedge: hedge})
	r.k.After(50*time.Millisecond, func() { r.pool.Server(0).SetLatencyFactor(20) })
	var out offload.Outcome
	r.k.Spawn("client", func(p *sim.Proc) {
		out = r.svc.Do(p, "speech", offload.Arm{CPU: 2.0}, remoteArm(), nil)
	})
	r.k.Run(0)
	return out, r.svc.Stats
}

// TestHedgeEngagesSecondServer: the slow primary trips the hedge trigger and
// the request completes on the second pool member.
func TestHedgeEngagesSecondServer(t *testing.T) {
	out, st := hedgeScenario(t, 29, true)
	if !out.Hedged || out.FellBack || out.Mode != offload.Remote {
		t.Fatalf("outcome %+v, want hedged remote completion", out)
	}
	if out.Server != "pool-1" {
		t.Fatalf("completed on %q, want the second member pool-1", out.Server)
	}
	if st.Hedges != 1 || st.RemoteRuns != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats %+v, want exactly one hedge, one remote run", st)
	}
}

// TestNoHedgeDegradesInstead: the same weather with hedging disarmed burns
// the call budget on the primary and degrades to local — no second server.
func TestNoHedgeDegradesInstead(t *testing.T) {
	out, st := hedgeScenario(t, 29, false)
	if out.Mode != offload.Local || !out.FellBack || out.Hedged {
		t.Fatalf("outcome %+v, want un-hedged degrade to local", out)
	}
	if st.Hedges != 0 || st.Fallbacks != 1 {
		t.Fatalf("stats %+v, want zero hedges and one fallback", st)
	}
}

// TestHedgeDeterminism: the hedge trigger draws jitter from the service's
// private seeded stream, so the same seed replays the identical outcome and
// counter block — with hedging on and off alike.
func TestHedgeDeterminism(t *testing.T) {
	for _, hedge := range []bool{true, false} {
		out1, st1 := hedgeScenario(t, 31, hedge)
		out2, st2 := hedgeScenario(t, 31, hedge)
		if !reflect.DeepEqual(out1, out2) || !reflect.DeepEqual(st1, st2) {
			t.Errorf("hedge=%v diverged across same-seed runs:\n %+v %+v\n %+v %+v",
				hedge, out1, st1, out2, st2)
		}
	}
}
