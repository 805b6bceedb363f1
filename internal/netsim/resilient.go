package netsim

import (
	"errors"
	"time"

	"odyssey/internal/sim"
)

// Call outcomes. Callers treat any non-nil error as "the remote operation
// did not happen" and fall back locally.
var (
	// ErrDeadline: the virtual-clock deadline expired before the transfer
	// or server work completed.
	ErrDeadline = errors.New("netsim: deadline exceeded")
	// ErrLinkDown: the wireless carrier was absent when the call started.
	ErrLinkDown = errors.New("netsim: link down")
	// ErrServerDown: the remote server is in a crash window; the request
	// timed out unanswered.
	ErrServerDown = errors.New("netsim: server down")
)

// linkProbe is how long a carrier-sense probe takes to report a dead link:
// the fail-fast cost of attempting a call during an outage.
const linkProbe = 100 * time.Millisecond

// CallOptions bounds a call: a per-attempt timeout on the virtual clock, a
// retry budget, and an overall deadline. Failed attempts retry after an
// exponential backoff with seeded jitter drawn from the kernel RNG. The zero
// value is an unbounded call that blocks through outages and crashes and
// cannot fail.
type CallOptions struct {
	// Timeout is the per-attempt deadline, relative to the attempt start.
	// Zero means no per-attempt deadline.
	Timeout time.Duration
	// Attempts is the total attempt budget (first try included); zero
	// selects defaultAttempts.
	Attempts int
	// Deadline, when nonzero, is an absolute virtual-clock instant bounding
	// the whole call: attempts are truncated to it, no attempt starts after
	// it, and backoff sleeps never overshoot it. Zero leaves only the
	// per-attempt Timeout. The offload plane's hedged calls depend on this
	// to share one budget across servers.
	Deadline time.Duration
}

// Retry schedule: a failing call costs a few attempts, not a hung process.
// The first retry waits retryBackoff, each later one backoffFactor times the
// last, and every wait is spread uniformly by +/- jitterFrac to decorrelate
// retry storms across processes.
const (
	defaultAttempts = 3
	retryBackoff    = 250 * time.Millisecond
	backoffFactor   = 2.0
	jitterFrac      = 0.5
)

// attemptDeadline bounds one attempt starting at now: the per-attempt
// timeout, truncated to the overall Deadline when one is set. Zero means the
// attempt is unbounded.
func (o CallOptions) attemptDeadline(now time.Duration) time.Duration {
	if o.Timeout <= 0 {
		return o.Deadline
	}
	d := now + o.Timeout
	if o.Deadline > 0 && d > o.Deadline {
		d = o.Deadline
	}
	return d
}

// RPC performs a remote procedure call: send callBytes, wait for the server
// to spend serverTime (a nil server is a fixed dwell), receive replyBytes.
// The interface stays awake for the whole span, as in the paper's modified
// communication package.
//
// A call with neither opts.Timeout nor opts.Deadline rides out outages and
// crashes and returns nil. Otherwise a dead carrier fails fast, a crashed
// server or a stall times out, and failed attempts retry with backoff under
// the net-retry principal so their energy is visible in PowerScope profiles.
func (n *Network) RPC(p *sim.Proc, principal string, callBytes float64, server *Server, serverTime time.Duration, replyBytes float64, opts CallOptions) error {
	attempts := opts.Attempts
	if attempts <= 0 {
		attempts = defaultAttempts
	}
	wait := retryBackoff
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		pr := principal
		if attempt > 0 {
			pr = PrincipalRetry
			n.retryAttempts++
		}
		err = n.tryOnce(p, pr, callBytes, server, serverTime, replyBytes, opts.attemptDeadline(n.k.Now()))
		if err == nil {
			return nil
		}
		if attempt < attempts-1 {
			sleep := jittered(wait, n.k)
			if opts.Deadline > 0 {
				// Sleeping to or past the overall deadline cannot buy
				// another attempt; give up with the budget unspent.
				if rem := opts.Deadline - n.k.Now(); sleep >= rem {
					return err
				}
			}
			p.Sleep(sleep)
			wait = time.Duration(float64(wait) * backoffFactor)
		}
	}
	return err
}

// BulkTransfer moves bytes over the link on behalf of principal: an RPC with
// no server leg and no reply.
func (n *Network) BulkTransfer(p *sim.Proc, principal string, bytes float64, opts CallOptions) error {
	return n.RPC(p, principal, bytes, nil, 0, 0, opts)
}

// tryOnce performs one attempt: probe the carrier, send, wait for the
// server, receive. With a deadline every blocking step is guarded by it, so
// an attempt can never outlive it; with deadline zero nothing can fail.
func (n *Network) tryOnce(p *sim.Proc, principal string, callBytes float64, server *Server, serverTime time.Duration, replyBytes float64, deadline time.Duration) error {
	bounded := deadline > 0
	if bounded && !n.up {
		// Carrier sense fails fast; burn the probe time, not the timeout.
		d := linkProbe
		if rem := deadline - n.k.Now(); rem < d {
			d = rem
		}
		if d > 0 {
			p.Sleep(d)
		}
		return ErrLinkDown
	}
	n.acquire(p)
	defer n.release()
	if err := n.flow(p, principal, callBytes, deadline); err != nil {
		return err
	}
	switch {
	case bounded && server != nil && server.Down():
		// The request vanished into a crash window: the client waits out
		// its timeout with the interface awake, then gives up.
		if rem := deadline - n.k.Now(); rem > 0 {
			p.Sleep(rem)
		}
		return ErrServerDown
	case server != nil:
		if !server.Do(p, serverTime, deadline) {
			return ErrDeadline
		}
	case serverTime > 0:
		if rem := deadline - n.k.Now(); bounded && rem < serverTime {
			if rem > 0 {
				p.Sleep(rem)
			}
			return ErrDeadline
		}
		p.Sleep(serverTime)
	}
	return n.flow(p, principal, replyBytes, deadline)
}

// jittered spreads d by +/- jitterFrac uniformly using the kernel's seeded
// RNG.
func jittered(d time.Duration, k *sim.Kernel) time.Duration {
	return time.Duration(float64(d) * (1 + jitterFrac*(2*k.Rand().Float64()-1)))
}
