package netsim

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"odyssey/internal/sim"
)

// TestUnboundedMatchesGenerousTimeout is the invariant that lets one call
// serve both clean and faulted runs: on a clean link a deadline that never
// fires only schedules and cancels a watchdog timer. Over many seeds, a mixed
// workload of concurrent RPCs against a jittery server and bulk transfers on
// the shared link must finish every call at the same instant, move the same
// bytes, and charge the same energy per principal — bit for bit — whether
// its calls carry no deadline or a generous one.
func TestUnboundedMatchesGenerousTimeout(t *testing.T) {
	type op struct {
		start      time.Duration
		callBytes  float64
		serverTime time.Duration // 0: a bulk transfer
		replyBytes float64
	}
	type result struct {
		done   [][]time.Duration
		bytes  float64
		energy map[string]float64
	}
	run := func(seed int64, ops [][]op, opts CallOptions) result {
		m, n := newNet(seed)
		n.StandbyPolicy = seed%2 == 0
		srv := NewServer(m.K, "s")
		done := make([][]time.Duration, len(ops))
		for i, seq := range ops {
			done[i] = make([]time.Duration, len(seq))
			m.K.Spawn("client", func(p *sim.Proc) {
				for j, o := range seq {
					p.Sleep(o.start)
					var err error
					if o.serverTime > 0 {
						err = n.RPC(p, "rpc", o.callBytes, srv, o.serverTime, o.replyBytes, opts)
					} else {
						err = n.BulkTransfer(p, "bulk", o.callBytes, opts)
					}
					if err != nil {
						t.Errorf("seed %d: clean-link call failed: %v", seed, err)
					}
					done[i][j] = p.Now()
				}
			})
		}
		m.K.Run(0)
		return result{done, n.BytesMoved(), m.Acct.EnergyByPrincipal()}
	}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([][]op, 2+rng.Intn(3))
		for i := range ops {
			for j := 0; j < 3+rng.Intn(3); j++ {
				o := op{
					start:     time.Duration(rng.Intn(2000)) * time.Millisecond,
					callBytes: 1_000 + 150_000*rng.Float64(),
				}
				if rng.Intn(2) == 0 {
					o.serverTime = time.Duration(100+rng.Intn(2900)) * time.Millisecond
					o.replyBytes = 80_000 * rng.Float64()
				}
				ops[i] = append(ops[i], o)
			}
		}
		bare := run(seed, ops, CallOptions{})
		bounded := run(seed, ops, CallOptions{Timeout: time.Hour})
		if !reflect.DeepEqual(bare.done, bounded.done) {
			t.Fatalf("seed %d: completion instants differ:\n none    %v\n timeout %v", seed, bare.done, bounded.done)
		}
		if math.Float64bits(bare.bytes) != math.Float64bits(bounded.bytes) {
			t.Fatalf("seed %d: bytes moved %v vs %v", seed, bare.bytes, bounded.bytes)
		}
		if !reflect.DeepEqual(bare.energy, bounded.energy) {
			t.Fatalf("seed %d: per-principal energy differs:\n none    %v\n timeout %v", seed, bare.energy, bounded.energy)
		}
		if bare.bytes == 0 || bare.energy[PrincipalInterrupts] == 0 {
			t.Fatalf("seed %d: workload did no work", seed)
		}
	}
}

// TestUnboundedCallRidesOutFaults pins the contract callers without a
// deadline rely on: such a call skips the carrier probe and the server-down
// check, blocks through a carrier outage and a server crash window, and
// returns nil without a retry or an abort.
func TestUnboundedCallRidesOutFaults(t *testing.T) {
	m, n := newNet(29)
	srv := NewServer(m.K, "s")
	n.SetLinkUp(false)
	srv.SetDown(true)
	m.K.At(5*time.Second, func() { n.SetLinkUp(true) })
	m.K.At(30*time.Second, func() { srv.SetDown(false) })
	var rpcErr, bulkErr error
	var rpcDone, bulkDone time.Duration
	m.K.Spawn("rpc", func(p *sim.Proc) {
		rpcErr = n.RPC(p, "app", 20_000, srv, time.Second, 5_000, CallOptions{})
		rpcDone = p.Now()
	})
	m.K.Spawn("bulk", func(p *sim.Proc) {
		bulkErr = n.BulkTransfer(p, "app", 50_000, CallOptions{})
		bulkDone = p.Now()
	})
	m.K.Run(0)
	if rpcErr != nil || bulkErr != nil {
		t.Fatalf("unbounded calls failed: %v / %v", rpcErr, bulkErr)
	}
	if rpcDone < 5*time.Second || bulkDone < 5*time.Second {
		t.Fatalf("calls finished at %v / %v, before the outage ended at 5s", rpcDone, bulkDone)
	}
	if got := n.BytesMoved(); got != 75_000 {
		t.Fatalf("bytes moved %v, want 75000", got)
	}
	if n.RetryAttempts() != 0 || n.DeadlineAborts() != 0 {
		t.Fatalf("unbounded calls retried %d times, aborted %d", n.RetryAttempts(), n.DeadlineAborts())
	}
}

// TestDeadLinkFailsFast is the no-hang acceptance bar: on a dead link every
// attempt costs only the carrier probe, so the whole retry budget resolves in
// well under one per-attempt timeout — no call can block past its deadline.
func TestDeadLinkFailsFast(t *testing.T) {
	m, n := newNet(3)
	n.SetLinkUp(false)
	srv := NewServer(m.K, "s")
	opts := CallOptions{Timeout: 2 * time.Second, Attempts: 3}
	var rpcErr, bulkErr error
	var took [2]time.Duration
	m.K.Spawn("x", func(p *sim.Proc) {
		t0 := p.Now()
		rpcErr = n.RPC(p, "app", 20_000, srv, time.Second, 1_000, opts)
		took[0] = p.Now() - t0
		t0 = p.Now()
		bulkErr = n.BulkTransfer(p, "app", 50_000, opts)
		took[1] = p.Now() - t0
	})
	m.K.Run(0)
	if !errors.Is(rpcErr, ErrLinkDown) || !errors.Is(bulkErr, ErrLinkDown) {
		t.Fatalf("errors %v / %v, want ErrLinkDown", rpcErr, bulkErr)
	}
	// Each call is 3 probes plus 2 jittered backoffs of at most 375 and
	// 750 ms, under its 2 s per-attempt timeout; a blocking implementation
	// would burn 3 x 2 s of timeouts per call instead.
	for i, d := range took {
		if d >= opts.Timeout {
			t.Fatalf("dead-link call %d took %v; fail-fast probing should resolve in <%v", i, d, opts.Timeout)
		}
	}
}

// TestCrashedServerTimesOutAndChargesRetries: a request into a crash window
// waits out its own deadline, not forever, and the retry attempt's traffic is
// charged to the net-retry principal so PowerScope shows the waste.
func TestCrashedServerTimesOutAndChargesRetries(t *testing.T) {
	m, n := newNet(4)
	srv := NewServer(m.K, "s")
	srv.SetDown(true)
	var err error
	var done time.Duration
	m.K.Spawn("x", func(p *sim.Proc) {
		err = n.RPC(p, "app", 20_000, srv, time.Second, 1_000,
			CallOptions{Timeout: time.Second, Attempts: 2})
		done = p.Now()
	})
	m.K.Run(0)
	if !errors.Is(err, ErrServerDown) {
		t.Fatalf("error %v, want ErrServerDown", err)
	}
	// Two attempts, each bounded by its 1 s deadline, plus one backoff of at
	// most 375 ms.
	if done < 2*time.Second || done > 2500*time.Millisecond {
		t.Fatalf("two 1 s attempts finished at %v", done)
	}
	if got := n.RetryAttempts(); got != 1 {
		t.Fatalf("retry attempts %d, want 1", got)
	}
	if j := m.Acct.EnergyByPrincipal()[PrincipalRetry]; j <= 0 {
		t.Fatalf("no energy attributed to %s", PrincipalRetry)
	}
}

// TestStalledTransferAbortsAtDeadline: when the link serves (almost) no
// bytes — an outage landing mid-transfer — the deadline watchdog cancels the
// flow at the deadline instead of letting it stall indefinitely.
func TestStalledTransferAbortsAtDeadline(t *testing.T) {
	m, n := newNet(5)
	n.SetNominalCapacity(10) // bytes/s: a 1 MB transfer would take ~28 h
	var err error
	var done time.Duration
	m.K.Spawn("x", func(p *sim.Proc) {
		err = n.BulkTransfer(p, "app", 1e6, CallOptions{Timeout: time.Second, Attempts: 1})
		done = p.Now()
	})
	m.K.Run(0)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("error %v, want ErrDeadline", err)
	}
	if done > 1100*time.Millisecond {
		t.Fatalf("stalled transfer released at %v, past its 1 s deadline", done)
	}
	if got := n.DeadlineAborts(); got != 1 {
		t.Fatalf("deadline aborts %d, want 1", got)
	}
}

// TestByteLossInflatesRetryBytes: a constant 50% loss fraction doubles the
// traffic (f/(1-f) = 1), and the overhead lands in the retry ledger.
func TestByteLossInflatesRetryBytes(t *testing.T) {
	m, n := newNet(6)
	n.SetLossSampler(func() float64 { return 0.5 })
	const bytes = 80_000
	m.K.Spawn("x", func(p *sim.Proc) {
		if err := n.BulkTransfer(p, "app", bytes, CallOptions{Timeout: 10 * time.Second}); err != nil {
			t.Errorf("lossy transfer failed: %v", err)
		}
	})
	m.K.Run(0)
	if got := n.RetryBytes(); !approx(got, bytes, 1) {
		t.Fatalf("retry bytes %v, want ~%v (loss overhead at f=0.5)", got, float64(bytes))
	}
}

// TestRetryScheduleDeterministic: jittered backoff draws from the kernel
// stream, so the same seed yields the same retry schedule to the nanosecond.
func TestRetryScheduleDeterministic(t *testing.T) {
	run := func() time.Duration {
		m, n := newNet(9)
		n.SetLinkUp(false)
		m.K.After(700*time.Millisecond, func() { n.SetLinkUp(true) })
		var done time.Duration
		m.K.Spawn("x", func(p *sim.Proc) {
			if err := n.BulkTransfer(p, "app", 40_000,
				CallOptions{Timeout: 2 * time.Second, Attempts: 4}); err != nil {
				t.Errorf("transfer never recovered: %v", err)
			}
			done = p.Now()
		})
		m.K.Run(0)
		if n.RetryAttempts() == 0 {
			t.Fatal("scenario exercised no retries")
		}
		return done
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different retry schedules: %v vs %v", a, b)
	}
}

// TestServerLatencyFactorSlowsRequests: a latency spike multiplies service
// time; clearing it restores the calm rate.
func TestServerLatencyFactorSlowsRequests(t *testing.T) {
	m, _ := newNet(8)
	srv := NewServer(m.K, "s")
	srv.SetLatencyFactor(3)
	var spiked, calm time.Duration
	m.K.Spawn("x", func(p *sim.Proc) {
		t0 := p.Now()
		srv.Do(p, time.Second, 0)
		spiked = p.Now() - t0
		srv.SetLatencyFactor(1)
		t0 = p.Now()
		srv.Do(p, time.Second, 0)
		calm = p.Now() - t0
	})
	m.K.Run(0)
	if spiked < 2900*time.Millisecond || spiked > 3100*time.Millisecond {
		t.Fatalf("spiked request took %v, want ~3s", spiked)
	}
	if calm < 900*time.Millisecond || calm > 1100*time.Millisecond {
		t.Fatalf("calm request took %v, want ~1s", calm)
	}
}

// TestNoJitterExactSchedule: apart from its seeded jitter the dead-link retry
// schedule is exactly arithmetic — three probes plus backoffs of retryBackoff
// and retryBackoff x backoffFactor, each jittered by one draw from the kernel
// RNG and nothing else. The name dates from the NoJitter option; jitter is now
// always on, so the test replays the same draws on a twin machine built from
// the same seed to get the exact finish time.
func TestNoJitterExactSchedule(t *testing.T) {
	m, n := newNet(12)
	n.SetLinkUp(false)
	srv := NewServer(m.K, "s")
	var err error
	var done time.Duration
	m.K.Spawn("x", func(p *sim.Proc) {
		err = n.RPC(p, "app", 10_000, srv, time.Second, 1_000,
			CallOptions{Timeout: 2 * time.Second, Attempts: 3})
		done = p.Now()
	})
	m.K.Run(0)
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("error %v, want ErrLinkDown", err)
	}
	twin, _ := newNet(12)
	first := jittered(retryBackoff, twin.K)
	second := jittered(time.Duration(float64(retryBackoff)*backoffFactor), twin.K)
	if want := 3*linkProbe + first + second; done != want {
		t.Fatalf("dead-link schedule finished at %v, want exactly %v", done, want)
	}
}
