package netsim

import (
	"math"
	"testing"
	"time"

	"odyssey/internal/hw"
	"odyssey/internal/sim"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func newNet(seed int64) (*hw.Machine, *Network) {
	m := hw.NewMachine(sim.NewKernel(seed), hw.ThinkPad560X(), 1)
	return m, New(m)
}

func TestBulkTransferTime(t *testing.T) {
	m, n := newNet(1)
	var done time.Duration
	bytes := m.Prof.LinkBandwidth // exactly one second of link time
	m.K.Spawn("xfer", func(p *sim.Proc) {
		_ = n.BulkTransfer(p, "app", bytes, CallOptions{})
		done = p.Now()
	})
	m.K.Run(0)
	want := time.Second + m.Prof.LinkLatency
	if d := done - want; d < 0 || d > time.Millisecond {
		t.Fatalf("transfer finished at %v, want ~%v", done, want)
	}
}

func TestTransferNICStates(t *testing.T) {
	m, n := newNet(1)
	m.K.Spawn("xfer", func(p *sim.Proc) {
		p.Sleep(time.Second)
		_ = n.BulkTransfer(p, "app", m.Prof.LinkBandwidth/2, CallOptions{})
	})
	m.K.At(1500*time.Millisecond, func() {
		if m.NIC.State() != hw.NICTransfer {
			t.Errorf("NIC %v mid-transfer, want transfer", m.NIC.State())
		}
	})
	m.K.Run(0)
	if m.NIC.State() != hw.NICIdle {
		t.Fatalf("NIC %v after transfer without standby policy, want idle", m.NIC.State())
	}
}

func TestStandbyPolicyDozesAfterTransfer(t *testing.T) {
	m, n := newNet(1)
	n.StandbyPolicy = true
	m.NIC.SetState(hw.NICStandby)
	var start, end time.Duration
	m.K.Spawn("xfer", func(p *sim.Proc) {
		start = p.Now()
		_ = n.BulkTransfer(p, "app", m.Prof.LinkBandwidth/4, CallOptions{})
		end = p.Now()
	})
	m.K.Run(0)
	if m.NIC.State() != hw.NICStandby {
		t.Fatalf("NIC %v after transfer with standby policy, want standby", m.NIC.State())
	}
	// The resume delay must have been paid.
	if end-start < m.Prof.NICResume+250*time.Millisecond {
		t.Fatalf("transfer span %v too short to include resume delay", end-start)
	}
}

func TestSharedLinkHalvesThroughput(t *testing.T) {
	m, n := newNet(1)
	bytes := m.Prof.LinkBandwidth / 2 // half a second alone
	var fin [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		m.K.Spawn("xfer", func(p *sim.Proc) {
			_ = n.BulkTransfer(p, "app", bytes, CallOptions{})
			fin[i] = p.Now()
		})
	}
	m.K.Run(0)
	for i, f := range fin {
		// Two equal flows sharing: each takes ~1 s.
		if f < 990*time.Millisecond || f > 1100*time.Millisecond {
			t.Fatalf("flow %d finished at %v, want ~1s under sharing", i, f)
		}
	}
}

func TestRPCHoldsNICAwake(t *testing.T) {
	m, n := newNet(1)
	n.StandbyPolicy = true
	m.NIC.SetState(hw.NICStandby)
	srv := NewServer(m.K, "janus")
	m.K.Spawn("rpc", func(p *sim.Proc) {
		_ = n.RPC(p, "speech", 20_000, srv, 2*time.Second, 1_000, CallOptions{})
	})
	// During the server wait the NIC should be idle (awake), not standby.
	m.K.At(1200*time.Millisecond, func() {
		if m.NIC.State() != hw.NICIdle {
			t.Errorf("NIC %v during RPC server wait, want idle", m.NIC.State())
		}
	})
	m.K.Run(0)
	if m.NIC.State() != hw.NICStandby {
		t.Fatalf("NIC %v after RPC, want standby", m.NIC.State())
	}
}

func TestInterruptCPUAttribution(t *testing.T) {
	m, n := newNet(1)
	m.K.Spawn("xfer", func(p *sim.Proc) {
		_ = n.BulkTransfer(p, "app", 400_000, CallOptions{})
	})
	m.K.Run(0)
	byP := m.Acct.EnergyByPrincipal()
	if byP[PrincipalInterrupts] <= 0 {
		t.Fatal("no energy attributed to WaveLAN interrupts")
	}
	if byP[PrincipalKernel] <= 0 {
		t.Fatal("no energy attributed to kernel protocol processing")
	}
}

func TestServerSerializesRequests(t *testing.T) {
	m, _ := newNet(1)
	srv := NewServer(m.K, "distill")
	var fin [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		m.K.Spawn("req", func(p *sim.Proc) {
			srv.Do(p, time.Second, 0)
			fin[i] = p.Now()
		})
	}
	m.K.Run(0)
	// Processor sharing: both finish at ~2 s.
	for i, f := range fin {
		if f < 1900*time.Millisecond || f > 2100*time.Millisecond {
			t.Fatalf("request %d finished at %v, want ~2s", i, f)
		}
	}
}

func TestServerJitterVariesAcrossSeeds(t *testing.T) {
	times := make(map[time.Duration]bool)
	for seed := int64(1); seed <= 5; seed++ {
		m, _ := newNet(seed)
		srv := NewServer(m.K, "s")
		var fin time.Duration
		m.K.Spawn("req", func(p *sim.Proc) {
			srv.Do(p, time.Second, 0)
			fin = p.Now()
		})
		m.K.Run(0)
		times[fin] = true
		if fin < 950*time.Millisecond || fin > 1050*time.Millisecond {
			t.Fatalf("jittered service time %v outside ±5%%", fin)
		}
	}
	if len(times) < 3 {
		t.Fatalf("jitter produced only %d distinct times across 5 seeds", len(times))
	}
}

func TestZeroByteOperations(t *testing.T) {
	m, n := newNet(1)
	srv := NewServer(m.K, "s")
	var done time.Duration
	m.K.Spawn("x", func(p *sim.Proc) {
		_ = n.BulkTransfer(p, "app", 0, CallOptions{})
		_ = n.RPC(p, "app", 0, srv, 0, 0, CallOptions{})
		done = p.Now()
	})
	m.K.Run(0)
	if done > 10*time.Millisecond {
		t.Fatalf("zero-byte ops took %v", done)
	}
	if n.BytesMoved() != 0 {
		t.Fatalf("bytes moved %v, want 0", n.BytesMoved())
	}
}

func TestTransferEnergyAccounting(t *testing.T) {
	m, n := newNet(1)
	n.StandbyPolicy = true
	m.EnablePowerManagement()
	bytes := m.Prof.LinkBandwidth // ~1 s of transfer
	m.K.Spawn("xfer", func(p *sim.Proc) {
		_ = n.BulkTransfer(p, "app", bytes, CallOptions{})
	})
	m.K.Run(0)
	byC := m.Acct.EnergyByComponent()
	// Network energy should be roughly NICTransfer for ~1 s plus standby
	// before/after (tiny) — well above pure standby, well below 2x.
	if byC[hw.CompNetwork] < m.Prof.NICTransfer*0.9 || byC[hw.CompNetwork] > m.Prof.NICTransfer*1.5 {
		t.Fatalf("network energy %v J for a ~1 s transfer at %v W", byC[hw.CompNetwork], m.Prof.NICTransfer)
	}
}

func TestLinkQualityTransitions(t *testing.T) {
	m, n := newNet(1)
	q := NewLinkQuality(n, 0.25, 10*time.Second, 5*time.Second)
	q.Start()
	m.K.At(5*time.Minute, func() { q.Stop(); m.K.Stop() })
	m.K.Run(0)
	if q.Transitions() < 10 {
		t.Fatalf("only %d transitions in 5 minutes with ~7.5 s mean holds", q.Transitions())
	}
	// The link capacity must match the final state.
	want := q.GoodCapacity
	if !q.Good() {
		want = q.BadCapacity
	}
	if got := n.Link().Capacity(); got != want {
		t.Fatalf("capacity %v does not match state (want %v)", got, want)
	}
}

func TestLinkQualitySlowsTransfers(t *testing.T) {
	// Force the bad state by making the good state vanishingly short.
	m, n := newNet(2)
	q := NewLinkQuality(n, 0.10, time.Millisecond, time.Hour)
	q.Start()
	var done time.Duration
	m.K.Spawn("x", func(p *sim.Proc) {
		p.Sleep(time.Second)                                              // let the channel fall into the bad state
		_ = n.BulkTransfer(p, "app", m.Prof.LinkBandwidth, CallOptions{}) // 1 s at full speed
		done = p.Now()
	})
	m.K.Run(2 * time.Minute)
	if done < 8*time.Second {
		t.Fatalf("transfer finished at %v; the degraded link should take ~10x", done)
	}
}
