package netsim

import (
	"errors"
	"testing"
	"time"

	"odyssey/internal/sim"
)

// TestBackoffNeverOvershootsDeadline was written failing-first: the naive
// port of CallOptions.Deadline clamped each attempt's timeout but let the
// inter-attempt backoff sleep run unclamped, so a call with a 2.5 s overall
// deadline could return at 3+ s — the backoff slept straight through the
// budget even though no further attempt could be made. The contract under
// test: once Deadline is set, RPC/BulkTransfer return at or before it
// on the virtual clock, no matter how the retry budget and backoff interact.
func TestBackoffNeverOvershootsDeadline(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(n *Network, p *sim.Proc, srv *Server, opts CallOptions) error
	}{
		{"rpc", func(n *Network, p *sim.Proc, srv *Server, opts CallOptions) error {
			srv.SetDown(true)
			return n.RPC(p, "app", 20_000, srv, time.Second, 1_000, opts)
		}},
		{"bulk", func(n *Network, p *sim.Proc, srv *Server, opts CallOptions) error {
			n.SetLinkUp(false)
			return n.BulkTransfer(p, "app", 50_000, opts)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, n := newNet(17)
			srv := NewServer(m.K, "s")
			// Backoff (2 s) dwarfs the remaining budget after the first
			// 1 s attempt: a naive implementation sleeps it anyway.
			deadline := 2500 * time.Millisecond
			opts := CallOptions{
				Timeout:  time.Second,
				Attempts: 3,
				Backoff:  2 * time.Second,
				NoJitter: true,
				Deadline: deadline,
			}
			var err error
			var done time.Duration
			m.K.Spawn("x", func(p *sim.Proc) {
				err = tc.call(n, p, srv, opts)
				done = p.Now()
			})
			m.K.Run(0)
			if err == nil {
				t.Fatal("call against a crashed server succeeded")
			}
			if done > deadline {
				t.Fatalf("call returned at %v, overshooting its %v deadline", done, deadline)
			}
			if done == 0 {
				t.Fatal("call did no work")
			}
		})
	}
}

// TestDeadlineBoundsEveryAttempt: the overall deadline also truncates the
// attempt in flight — an attempt started 500 ms before the deadline gets
// only those 500 ms whether its per-attempt Timeout is far larger or unset.
func TestDeadlineBoundsEveryAttempt(t *testing.T) {
	for _, timeout := range []time.Duration{30 * time.Second, 0} {
		m, n := newNet(19)
		srv := NewServer(m.K, "slow")
		var err error
		var done time.Duration
		m.K.Spawn("x", func(p *sim.Proc) {
			p.Sleep(300 * time.Millisecond)
			// 500 ms of budget left against 10 s of server work: the attempt
			// must be cut at the overall deadline, not at now+Timeout.
			err = n.RPC(p, "app", 1_000, srv, 10*time.Second, 1_000, CallOptions{
				Timeout:  timeout,
				Attempts: 2,
				NoJitter: true,
				Deadline: 800 * time.Millisecond,
			})
			done = p.Now()
		})
		m.K.Run(0)
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("timeout %v: err = %v, want ErrDeadline", timeout, err)
		}
		if done > 800*time.Millisecond {
			t.Fatalf("timeout %v: call returned at %v, overshooting its 800ms deadline", timeout, done)
		}
	}
}

// TestDeadlineZeroIsLegacyRetrySchedule: the zero value keeps the exact
// pre-Deadline retry schedule, so every existing caller is untouched.
func TestDeadlineZeroIsLegacyRetrySchedule(t *testing.T) {
	m, n := newNet(23)
	n.SetLinkUp(false)
	srv := NewServer(m.K, "s")
	var done time.Duration
	m.K.Spawn("x", func(p *sim.Proc) {
		_ = n.RPC(p, "app", 1_000, srv, time.Second, 1_000, CallOptions{
			Timeout: time.Second, Attempts: 3, Backoff: 400 * time.Millisecond,
			BackoffFactor: 2, NoJitter: true,
		})
		done = p.Now()
	})
	m.K.Run(0)
	// 3 probes (100 ms each) + backoffs of 400 ms and 800 ms = 1.5 s.
	if want := 1500 * time.Millisecond; done != want {
		t.Fatalf("legacy schedule took %v, want %v", done, want)
	}
}
