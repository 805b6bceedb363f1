package netsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"odyssey/internal/sim"
)

// TestBackoffNeverOvershootsDeadline: once Deadline is set, RPC and
// BulkTransfer return at or before it on the virtual clock, however the
// retry budget and backoff interact; a backoff that cannot end before the
// deadline is not slept.
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
			// The shortest first backoff, retryBackoff x (1-jitterFrac),
			// outlasts the budget left after a first 1 s attempt: a naive
			// implementation sleeps it anyway.
			deadline := time.Second + retryBackoff/4
			opts := CallOptions{
				Timeout:  time.Second,
				Attempts: 3,
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

// TestDeadlineZeroIsLegacyRetrySchedule: with no Deadline every backoff is
// slept in full, so a dead-link call takes its probes plus its backoffs, and
// the n-th backoff lies within retryBackoff x backoffFactor^n x (1 +/-
// jitterFrac). Calls of 1 to 4 attempts on one seed draw the same jitter
// stream, so each call outlasts the one before by one probe and one backoff.
func TestDeadlineZeroIsLegacyRetrySchedule(t *testing.T) {
	call := func(attempts int) time.Duration {
		m, n := newNet(23)
		n.SetLinkUp(false)
		srv := NewServer(m.K, "s")
		var err error
		var done time.Duration
		m.K.Spawn("x", func(p *sim.Proc) {
			err = n.RPC(p, "app", 1_000, srv, time.Second, 1_000, CallOptions{Timeout: time.Second, Attempts: attempts})
			done = p.Now()
		})
		m.K.Run(0)
		if !errors.Is(err, ErrLinkDown) {
			t.Fatalf("%d attempts: err = %v, want ErrLinkDown", attempts, err)
		}
		return done
	}
	prev := call(1)
	if prev != linkProbe {
		t.Fatalf("one attempt took %v, want one %v probe", prev, linkProbe)
	}
	for attempts := 2; attempts <= 4; attempts++ {
		done := call(attempts)
		wait := done - prev - linkProbe
		base := float64(retryBackoff) * math.Pow(backoffFactor, float64(attempts-2))
		lo, hi := time.Duration(base*(1-jitterFrac)), time.Duration(base*(1+jitterFrac))
		if wait < lo || wait > hi {
			t.Fatalf("backoff %d slept %v, want within [%v, %v]", attempts-1, wait, lo, hi)
		}
		prev = done
	}
}
