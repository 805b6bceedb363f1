// Package netsim models the wireless network of the paper's testbed: a
// 2 Mb/s WaveLAN link shared by all traffic, remote servers, and the
// Odyssey communication package's power policy (the paper modified it to
// keep the interface in standby except during remote procedure calls and
// bulk transfers).
//
// Receiving and transmitting burn client CPU in interrupt handlers and
// kernel protocol processing; PowerScope attributes that energy to
// "Interrupts-WaveLAN" and "Kernel", and so do we.
package netsim

import (
	"time"

	"odyssey/internal/hw"
	"odyssey/internal/sim"
)

// Principals used for network-related CPU attribution.
const (
	PrincipalInterrupts = "Interrupts-WaveLAN"
	PrincipalKernel     = "Kernel"
	// PrincipalRetry is charged for traffic that exists only because the
	// network misbehaved: retry attempts and loss-induced retransmissions.
	// It makes wasted joules a first-class line in PowerScope profiles.
	PrincipalRetry = "net-retry"
	// PrincipalOffload is charged for the offload plane's robustness work:
	// hedged requests, cross-server failover attempts, and transfers
	// abandoned mid-offload. The decision layer (internal/offload) issues
	// all its remote traffic under it, so the cost of offloading — useful
	// and wasted alike — is one line in PowerScope profiles.
	PrincipalOffload = "offload"
)

// outageCapacity is the link service rate during an injected outage: low
// enough that in-flight transfers effectively stall (and deadline watchdogs
// fire), but positive so the processor-sharing invariants hold.
const outageCapacity = 1e-3 // bytes/s

// maxLossFraction caps per-transfer byte loss so the retransmission
// inflation factor 1/(1-loss) stays finite.
const maxLossFraction = 0.9

// Tunables for client-side per-byte CPU costs (assumptions; see DESIGN.md).
const (
	// irqCPUPerByte is interrupt-handler cpu-seconds per transferred byte
	// (~12% of the CPU at full link rate).
	irqCPUPerByte = 6.0e-7
	// kernelCPUPerByte is protocol-stack cpu-seconds per transferred byte.
	kernelCPUPerByte = 2.5e-7
)

// Network is the client's view of the wireless link.
type Network struct {
	k    *sim.Kernel
	m    *hw.Machine
	link *sim.PSResource

	// StandbyPolicy enables the modified communication package: the
	// interface dozes except during RPCs and bulk transfers. Off in the
	// paper's baseline runs, on under hardware power management.
	StandbyPolicy bool

	holds int // RPC/transfer spans keeping the NIC awake
	xfers int // byte flows keeping the NIC in transfer state

	bytesMoved float64

	// Failure-plane state (see internal/faults). On a clean link a call's
	// deadline never fires, so fault-free runs pay only its watchdog timer.
	up          bool
	nominalCap  float64
	lossSampler func() float64 // per-transfer loss fraction; nil = lossless

	retryAttempts  int
	retryBytes     float64 // retransmission + retry traffic, bytes
	deadlineAborts int
}

// New returns a network for machine m using the profile's link bandwidth.
func New(m *hw.Machine) *Network {
	n := &Network{
		k:          m.K,
		m:          m,
		link:       sim.NewPSResource(m.K, "wavelan", m.Prof.LinkBandwidth),
		up:         true,
		nominalCap: m.Prof.LinkBandwidth,
	}
	return n
}

// Link exposes the shared link resource (for latency estimation).
func (n *Network) Link() *sim.PSResource { return n.link }

// BytesMoved reports total bytes transferred in either direction.
func (n *Network) BytesMoved() float64 { return n.bytesMoved }

// SetLinkUp raises or drops the wireless carrier. While down, the link
// serves at a vanishing rate: in-flight flows stall (their bytes are not
// lost) and deadline-guarded calls abort via their watchdogs.
func (n *Network) SetLinkUp(up bool) {
	if n.up == up {
		return
	}
	n.up = up
	if up {
		n.link.SetCapacity(n.nominalCap)
	} else {
		n.link.SetCapacity(outageCapacity)
	}
}

// LinkUp reports whether the carrier is present.
func (n *Network) LinkUp() bool { return n.up }

// SetNominalCapacity changes the fault-free link rate (the quality models'
// knob). During an outage the new rate is recorded and applied on recovery.
func (n *Network) SetNominalCapacity(c float64) {
	n.nominalCap = c
	if n.up {
		n.link.SetCapacity(c)
	}
}

// NominalCapacity reports the fault-free link rate in bytes/second — the
// figure the offload cost model uses to estimate transfer time and energy.
func (n *Network) NominalCapacity() float64 { return n.nominalCap }

// SetLossSampler installs a per-transfer byte-loss source: called once per
// flow, it returns the fraction of transmitted bytes lost to the channel
// (retransmissions inflate traffic by 1/(1-loss)). nil restores losslessness.
func (n *Network) SetLossSampler(fn func() float64) { n.lossSampler = fn }

// RetryAttempts reports how many retry attempts calls made.
func (n *Network) RetryAttempts() int { return n.retryAttempts }

// RetryBytes reports bytes that existed only as retries or retransmissions.
func (n *Network) RetryBytes() float64 { return n.retryBytes }

// DeadlineAborts reports transfers cancelled by their deadline watchdog.
func (n *Network) DeadlineAborts() int { return n.deadlineAborts }

// updateNIC drives the interface state machine from the hold/xfer counters.
func (n *Network) updateNIC() {
	switch {
	case n.xfers > 0:
		n.m.NIC.SetState(hw.NICTransfer)
	case n.holds > 0:
		n.m.NIC.SetState(hw.NICIdle)
	case n.StandbyPolicy:
		n.m.NIC.SetState(hw.NICStandby)
	default:
		n.m.NIC.SetState(hw.NICIdle)
	}
}

// acquire wakes the interface for a communication span, paying the resume
// delay when it was dozing.
func (n *Network) acquire(p *sim.Proc) {
	if n.m.NIC.State() == hw.NICStandby || n.m.NIC.State() == hw.NICOff {
		p.Sleep(n.m.Prof.NICResume)
	}
	n.holds++
	n.updateNIC()
}

// release ends a communication span.
func (n *Network) release() {
	n.holds--
	n.updateNIC()
}

// flow performs the actual byte flow: link time (shared), interrupt and
// protocol CPU, transfer-state power. A nonzero deadline on the virtual clock
// cancels the flow if it has not finished by then (zero: no deadline), and
// loss-induced retransmission bytes are charged to the retry principal.
func (n *Network) flow(p *sim.Proc, principal string, bytes float64, deadline time.Duration) error {
	if bytes <= 0 {
		return nil
	}
	if deadline > 0 && n.k.Now() >= deadline {
		return ErrDeadline
	}
	overhead := 0.0
	if n.lossSampler != nil {
		if f := n.lossSampler(); f > 0 {
			if f > maxLossFraction {
				f = maxLossFraction
			}
			overhead = bytes * f / (1 - f)
		}
	}
	n.xfers++
	n.updateNIC()
	n.bytesMoved += bytes
	// Interrupt and kernel CPU proceed concurrently with the flow. Bytes
	// moved on a retry attempt charge their CPU to the retry principal
	// instead, so wasted work is attributed where it belongs.
	irqP, kernP := PrincipalInterrupts, PrincipalKernel
	switch principal {
	case PrincipalRetry:
		irqP, kernP = PrincipalRetry, PrincipalRetry
		n.retryBytes += bytes
	case PrincipalOffload:
		// Offload-plane traffic keeps its per-byte CPU under the offload
		// principal too, so the plane's client-side cost is self-contained.
		irqP, kernP = PrincipalOffload, PrincipalOffload
	}
	n.m.CPU.RunAsync(irqP, bytes*irqCPUPerByte, nil)
	n.m.CPU.RunAsync(kernP, bytes*kernelCPUPerByte, nil)
	if overhead > 0 {
		// Retransmitted bytes burn the same per-byte CPU, attributed to
		// the retry principal so the waste is visible in profiles.
		n.retryBytes += overhead
		n.m.CPU.RunAsync(PrincipalRetry, overhead*(irqCPUPerByte+kernelCPUPerByte), nil)
	}
	defer func() {
		n.xfers--
		n.updateNIC()
	}()
	p.Sleep(n.m.Prof.LinkLatency)
	total := bytes + overhead
	cancelled, remaining := n.link.UseDeadline(p, principal, total, deadline)
	if cancelled {
		// Credit back the goodput share of what never made it across.
		n.bytesMoved -= remaining * (bytes / total)
		n.deadlineAborts++
		return ErrDeadline
	}
	return nil
}

// Server is a remote compute server (map server, distillation server, remote
// Janus). Server time costs the client no energy beyond waiting — the paper
// notes remote servers likely run from wall power. Concurrent requests share
// the server processor-sharing style.
type Server struct {
	Name string
	res  *sim.PSResource
	k    *sim.Kernel

	// Failure-plane state: while down, calls with a deadline time out
	// unanswered (calls without one are unaffected — a crashed server has
	// answered by the time their RPC completes). latency multiplies service
	// times during injected latency spikes; 0 means calm (factor 1).
	down    bool
	latency float64

	// bg is the phantom load other devices place on the server (the pool's
	// seeded contention model): each request's service time stretches by
	// 1+bg, as if bg concurrent strangers shared the processor.
	bg float64
}

// serverJitter is the +/- fraction of uniform noise on each request's
// service time, giving trials non-degenerate variance.
const serverJitter = 0.05

// NewServer returns a server with one second of service capacity per second.
func NewServer(k *sim.Kernel, name string) *Server {
	return &Server{Name: name, k: k, res: sim.NewPSResource(k, "server:"+name, 1.0)}
}

// SetDown crashes or recovers the server. While it is down, RPCs with a
// deadline wait it out and fail with ErrServerDown.
func (s *Server) SetDown(down bool) { s.down = down }

// Down reports whether the server is in a crash window.
func (s *Server) Down() bool { return s.down }

// SetLatencyFactor installs a service-time multiplier for injected latency
// spikes; factors <= 1 restore calm.
func (s *Server) SetLatencyFactor(f float64) {
	if f <= 1 {
		f = 0
	}
	s.latency = f
}

// LatencyFactor reports the current service-time multiplier (>= 1).
func (s *Server) LatencyFactor() float64 {
	if s.latency > 1 {
		return s.latency
	}
	return 1
}

// SetBackgroundLoad installs the phantom contention level: l concurrent
// strangers' worth of work stretching every service time by 1+l. Negative
// levels clear it.
func (s *Server) SetBackgroundLoad(l float64) {
	if l < 0 {
		l = 0
	}
	s.bg = l
}

// BackgroundLoad reports the current phantom contention level. The pool
// publishes it as the server's load bulletin, so the offload cost model
// reads the same figure the queueing model applies.
func (s *Server) BackgroundLoad() float64 { return s.bg }

// Do blocks p while the server spends d of compute time on its request,
// shared with any concurrent requests and jittered by serverJitter. It
// reports whether the request completed (false: the absolute virtual-time
// deadline cut it off); a zero deadline waits indefinitely.
func (s *Server) Do(p *sim.Proc, d time.Duration, deadline time.Duration) bool {
	if d <= 0 {
		return true
	}
	sec := d.Seconds() * (1 + serverJitter*(2*s.k.Rand().Float64()-1))
	if s.latency > 1 {
		sec *= s.latency
	}
	if s.bg > 0 {
		sec *= 1 + s.bg
	}
	cancelled, _ := s.res.UseDeadline(p, s.Name, sec, deadline)
	return !cancelled
}
