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
// retry budget, and exponential backoff with seeded jitter drawn from the
// kernel RNG. The zero value is an unbounded call that blocks through
// outages and crashes and cannot fail; the other zero fields select the
// defaults below.
type CallOptions struct {
	// Timeout is the per-attempt deadline, relative to the attempt start.
	// Zero means no per-attempt deadline.
	Timeout time.Duration
	// Attempts is the total attempt budget (first try included).
	Attempts int
	// Backoff is the delay before the first retry; each subsequent retry
	// multiplies it by BackoffFactor.
	Backoff       time.Duration
	BackoffFactor float64
	// JitterFrac spreads each backoff uniformly by +/- the given fraction,
	// decorrelating retry storms across processes. Leaving it zero selects
	// the default; to genuinely disable jitter set NoJitter.
	JitterFrac float64
	// NoJitter requests exactly deterministic backoff delays (no RNG draw
	// per retry). JitterFrac alone cannot express this: its zero value is
	// reserved for "use the default" per the zero-value contract above.
	NoJitter bool
	// Deadline, when nonzero, is an absolute virtual-clock instant bounding
	// the whole call: attempts are truncated to it, no attempt starts after
	// it, and backoff sleeps never overshoot it. Zero leaves only the
	// per-attempt Timeout. The offload plane's hedged calls depend on this
	// to share one budget across servers.
	Deadline time.Duration
}

// Default retry options: a failing call costs a few attempts, not a hung
// process.
const (
	defaultAttempts = 3
	defaultBackoff  = 250 * time.Millisecond
	defaultFactor   = 2.0
	defaultJitter   = 0.5
)

func (o CallOptions) withDefaults() CallOptions {
	if o.Attempts <= 0 {
		o.Attempts = defaultAttempts
	}
	if o.Backoff <= 0 {
		o.Backoff = defaultBackoff
	}
	if o.BackoffFactor < 1 {
		o.BackoffFactor = defaultFactor
	}
	if o.NoJitter {
		o.JitterFrac = 0
	} else if o.JitterFrac <= 0 || o.JitterFrac >= 1 {
		o.JitterFrac = defaultJitter
	}
	return o
}

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
	opts = opts.withDefaults()
	backoff := opts.Backoff
	var err error
	for attempt := 0; attempt < opts.Attempts; attempt++ {
		pr := principal
		if attempt > 0 {
			pr = PrincipalRetry
			n.retryAttempts++
		}
		err = n.tryOnce(p, pr, callBytes, server, serverTime, replyBytes, opts.attemptDeadline(n.k.Now()))
		if err == nil {
			return nil
		}
		if attempt < opts.Attempts-1 {
			sleep := jittered(backoff, opts.JitterFrac, n.k)
			if opts.Deadline > 0 {
				// Sleeping to or past the overall deadline cannot buy
				// another attempt; give up with the budget unspent.
				if rem := opts.Deadline - n.k.Now(); sleep >= rem {
					return err
				}
			}
			p.Sleep(sleep)
			backoff = time.Duration(float64(backoff) * opts.BackoffFactor)
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

// jittered spreads d by +/- frac uniformly using the kernel's seeded RNG.
func jittered(d time.Duration, frac float64, k *sim.Kernel) time.Duration {
	if frac <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 + frac*(2*k.Rand().Float64()-1)))
}
