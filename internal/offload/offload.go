// Package offload is the decision-and-execution layer that turns the speech
// application's hand-rolled local/remote/hybrid switching into a system
// service any application can use. Per request it runs a cost model —
// marshalling energy, link energy-per-byte at the current quality-governed
// link rate, expected server latency from the pool's load bulletins, local
// fidelity cost — weighted by the current battery-goal pressure, and places
// the work locally, remotely, or hybrid.
//
// Every remote attempt is wrapped in a robustness envelope: per-server
// circuit breakers (closed/open/half-open on the virtual clock), a seeded
// hedged request against the next-best pool member when the first exceeds
// its latency estimate, and mid-offload failover that re-dispatches or
// degrades to local when a link outage or server crash interrupts the
// transfer. A request is never stranded: the caller always receives either
// a completed remote outcome or an explicit fall-back-to-local verdict.
//
// Determinism contract: the service draws hedge jitter from its own seeded
// stream, never the kernel RNG, and a rig with no Service attached executes
// the pre-offload code paths byte-for-byte. All service-issued traffic and
// marshalling CPU run under the netsim.PrincipalOffload PowerScope
// principal, so hedge, retry, and abandoned-work energy is one visible line
// in profiles and conserves in the energy audit like any other principal.
package offload

import (
	"math/rand"
	"time"

	"odyssey/internal/hw"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
)

// Principal is the PowerScope principal the service charges for its
// marshalling CPU and all its remote traffic (an alias of the netsim
// constant so clients need not import netsim for attribution checks).
const Principal = netsim.PrincipalOffload

// marshalCPUPerByte is the client cpu-seconds spent serializing each
// request/reply byte (an assumption in the spirit of netsim's per-byte
// interrupt and kernel costs; see DESIGN.md).
const marshalCPUPerByte = 5.0e-8

// Decision is a placement verdict.
type Decision int

const (
	Local Decision = iota
	Remote
	Hybrid
)

func (d Decision) String() string {
	switch d {
	case Remote:
		return "remote"
	case Hybrid:
		return "hybrid"
	default:
		return "local"
	}
}

// Arm describes one placement option for a request. CPU is a cost-model
// input only — the caller runs its own compute after the verdict — while
// PreCPU (a hybrid arm's local phase) is executed by the service before
// dispatch, charged to the application's principal. A local arm may still
// move bytes: Bulk fetches SendBytes+ReplyBytes with no server, and a
// nonzero ServerSec with Bulk unset dwells at an origin (nil-server RPC),
// both under the arm's Opts.
type Arm struct {
	CPU        float64 // client cpu-seconds if this arm wins (cost input)
	PreCPU     float64 // cpu-seconds the service runs before dispatch
	SendBytes  float64
	ReplyBytes float64
	ServerSec  float64 // remote compute seconds (origin dwell for local arms)
	Bulk       bool    // local arm: plain bulk transfer, no server
	Opts       netsim.CallOptions
}

func (a Arm) bytes() float64 { return a.SendBytes + a.ReplyBytes }

// Outcome reports where one request ran.
type Outcome struct {
	Mode     Decision
	FellBack bool   // a remote/hybrid verdict degraded to local mid-flight
	Hedged   bool   // a second server was engaged
	Server   string // pool member that completed the work ("" for local)
	LocalErr error  // the local arm's own transfer failure, if any
}

// Config selects the service's envelope and placement policy.
type Config struct {
	// Hedge arms the hedged second request. Disarmed, a slow primary
	// simply consumes the whole call budget before degrading to local.
	Hedge bool
	// Policy forces the verdict: "local", "remote", or "" / "auto" for
	// the cost model. The robustness envelope applies regardless — a
	// forced-remote request still degrades to local rather than strand.
	Policy string
}

// The envelope and cost-model parameters.
const (
	// hedgeFactor: hedge when the primary exceeds its latency estimate
	// times this factor.
	hedgeFactor = 3.0
	// breakerThreshold consecutive failures open a server's breaker;
	// breakerCooldown later it admits one half-open probe.
	breakerThreshold = 2
	breakerCooldown  = 45 * time.Second
	// latencyWeight converts seconds of expected latency into
	// joule-equivalents at zero battery pressure (J/s: waiting is worth
	// about background power); pressure scales it away so a draining
	// battery shifts the verdict toward pure energy.
	latencyWeight = 6.0
)

// Stats is the service's observable counter block, harvested by the
// experiment layer into GoalResult.
type Stats struct {
	LocalRuns    int // verdicts that ran locally from the start
	RemoteRuns   int // completed remote placements
	HybridRuns   int // completed hybrid placements
	Hedges       int // second servers engaged for slow primaries
	Failovers    int // re-dispatches after a crash or link cut
	Fallbacks    int // remote/hybrid verdicts degraded to local
	BreakerTrips int // breaker closed/half-open -> open transitions
}

// Service is one rig's offload plane.
type Service struct {
	k    *sim.Kernel
	m    *hw.Machine
	net  *netsim.Network
	pool *netsim.Pool
	cfg  Config
	rng  *rand.Rand // private stream: hedge-timeout jitter only

	pressure func() float64 // battery-goal pressure in [0,1]; nil = 0.5
	breakers []breaker

	Stats Stats
}

// New builds the service over a pool. The seed isolates the service's RNG
// stream.
func New(k *sim.Kernel, m *hw.Machine, net *netsim.Network, pool *netsim.Pool, seed int64, cfg Config) *Service {
	return &Service{
		k:        k,
		m:        m,
		net:      net,
		pool:     pool,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		breakers: make([]breaker, pool.Size()),
	}
}

// SetPressure installs the battery-goal pressure source (0 = plugged-in
// comfort, 1 = the goal is in jeopardy). The experiment layer wires it to
// the energy monitor's drain fraction.
func (s *Service) SetPressure(fn func() float64) { s.pressure = fn }

func (s *Service) pressureNow() float64 {
	if s.pressure == nil {
		return 0.5
	}
	p := s.pressure()
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// estimate scores one arm: the arm's *marginal* energy (marshal + compute +
// link) and a latency term scaled away by battery pressure. Background draw
// is deliberately excluded — the session runs to its goal length whatever
// each request does, so background joules are placement-invariant and would
// only double-count waiting, which the latency term already prices.
// serveSec is the caller-computed expected server wait (pool estimate or
// origin dwell).
func (s *Service) estimate(arm Arm, serveSec float64, pressure float64) float64 {
	prof := s.m.Prof
	bytes := arm.bytes()
	cpuSec := arm.CPU + arm.PreCPU + bytes*marshalCPUPerByte
	linkSec := 0.0
	if bytes > 0 {
		if cap := s.net.NominalCapacity(); cap > 0 {
			linkSec = bytes/cap + prof.LinkLatency.Seconds()
		}
	}
	sec := cpuSec + linkSec + serveSec
	energy := cpuSec*prof.CPUBusy +
		linkSec*prof.NICTransfer +
		bytes*(irqKernCPUPerByte)*prof.CPUBusy
	return energy + latencyWeight*(1-pressure)*sec
}

// irqKernCPUPerByte mirrors netsim's per-byte interrupt+kernel CPU cost for
// the cost model (the executed path charges the real constants in netsim).
const irqKernCPUPerByte = 8.5e-7

// candidates returns admissible pool members ranked by expected wait for
// sec of server compute: breaker-open members are skipped (unless their
// cooldown has expired, which admits a half-open probe), ties break on the
// lower index, and a crashed member ranks last via its huge estimate.
func (s *Service) candidates(sec float64) []int {
	d := time.Duration(sec * float64(time.Second))
	var idx []int
	for i := 0; i < s.pool.Size(); i++ {
		if s.admit(i) {
			idx = append(idx, i)
		}
	}
	// Insertion sort by estimate: the pool is a handful of servers.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && s.pool.EstimateSec(idx[j], d) < s.pool.EstimateSec(idx[j-1], d); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// Do places one request. The caller describes the local arm (always
// required — it is the safety net) and optionally remote and hybrid arms;
// the verdict and envelope run here, and the caller finishes any local
// compute the winning arm implies (Outcome.Mode Local means "run your
// local path now"; a completed remote/hybrid outcome means the service
// already did everything except the caller's post-processing).
func (s *Service) Do(p *sim.Proc, app string, local Arm, remote *Arm, hybrid *Arm) Outcome {
	verdict, arm, cands := s.decide(local, remote, hybrid)
	if verdict == Local {
		s.Stats.LocalRuns++
		return s.runLocal(p, app, local, false)
	}
	if arm.PreCPU > 0 {
		// The hybrid local phase runs before dispatch; if the remote side
		// later fails, this work is abandoned and the caller's full local
		// redo makes the waste visible under the offload budget line.
		s.m.CPU.Run(p, app, arm.PreCPU)
	}
	if mb := arm.bytes() * marshalCPUPerByte; mb > 0 {
		s.m.CPU.Run(p, Principal, mb)
	}
	out, ok := s.dispatch(p, *arm, verdict, cands)
	if ok {
		return out
	}
	s.Stats.Fallbacks++
	fb := s.runLocal(p, app, local, true)
	fb.Hedged = out.Hedged
	return fb
}

// decide picks the winning arm. Remote and hybrid arms are admissible only
// when the link is up and at least one pool member's breaker admits; the
// returned candidate ranking is reused by dispatch so the verdict and the
// envelope see the same pool snapshot. Ties go to the earlier option in
// local < remote < hybrid order, keeping verdicts deterministic.
func (s *Service) decide(local Arm, remote, hybrid *Arm) (Decision, *Arm, []int) {
	if s.cfg.Policy == "local" || (remote == nil && hybrid == nil) {
		return Local, nil, nil
	}
	sec := 0.0
	if remote != nil {
		sec = remote.ServerSec
	} else {
		sec = hybrid.ServerSec
	}
	cands := s.candidates(sec)
	if len(cands) == 0 || !s.net.LinkUp() {
		return Local, nil, nil
	}
	if s.cfg.Policy == "remote" {
		if remote != nil {
			return Remote, remote, cands
		}
		return Hybrid, hybrid, cands
	}
	best := cands[0]
	pressure := s.pressureNow()
	waitOf := func(a *Arm) float64 {
		return s.pool.EstimateSec(best, time.Duration(a.ServerSec*float64(time.Second))).Seconds()
	}
	verdict, bestArm := Local, (*Arm)(nil)
	bestScore := s.estimate(local, local.ServerSec, pressure)
	if remote != nil {
		if sc := s.estimate(*remote, waitOf(remote), pressure); sc < bestScore {
			bestScore, verdict, bestArm = sc, Remote, remote
		}
	}
	if hybrid != nil {
		if sc := s.estimate(*hybrid, waitOf(hybrid), pressure); sc < bestScore {
			bestScore, verdict, bestArm = sc, Hybrid, hybrid
		}
	}
	return verdict, bestArm, cands
}

// dispatch runs the envelope: primary attempt against the best candidate
// with a hedge-trigger timeout, then (hedging armed) one hedged or
// failed-over attempt against the next-best member, all inside one overall
// deadline. It reports ok=false when the caller must degrade to local.
func (s *Service) dispatch(p *sim.Proc, arm Arm, verdict Decision, cands []int) (Outcome, bool) {
	est := s.pool.EstimateSec(cands[0], time.Duration(arm.ServerSec*float64(time.Second)))
	if est > time.Hour {
		// Every candidate is crashed (EstimateSec's 1<<62 sentinel): keep
		// the budget arithmetic finite; the attempts below fail fast anyway.
		est = time.Hour
	}
	linkSec := 0.0
	if cap := s.net.NominalCapacity(); cap > 0 {
		linkSec = arm.bytes() / cap
	}
	budget := 2*(est+time.Duration(linkSec*float64(time.Second))) + 10*time.Second
	deadline := s.k.Now() + budget
	maxTries := 1
	if s.cfg.Hedge && len(cands) > 1 {
		maxTries = 2
	}
	var out Outcome
	for t := 0; t < maxTries && t < len(cands); t++ {
		i := cands[t]
		srv := s.pool.Server(i)
		timeout := budget
		if t == 0 && maxTries > 1 {
			// The hedge trigger: a jittered multiple of the estimate,
			// drawn from the service's private stream.
			jitter := 0.9 + 0.2*s.rng.Float64()
			timeout = time.Duration(float64(est+time.Duration(linkSec*float64(time.Second))) * hedgeFactor * jitter)
			if timeout > budget {
				timeout = budget
			}
		}
		err := s.net.RPC(p, Principal, arm.SendBytes, srv,
			time.Duration(arm.ServerSec*float64(time.Second)), arm.ReplyBytes,
			netsim.CallOptions{Timeout: timeout, Attempts: 1, Deadline: deadline})
		s.record(i, err == nil)
		if err == nil {
			if verdict == Hybrid {
				s.Stats.HybridRuns++
			} else {
				s.Stats.RemoteRuns++
			}
			out.Mode, out.Server = verdict, srv.Name
			out.Hedged = t > 0
			return out, true
		}
		if err == netsim.ErrLinkDown {
			// No pool member is reachable without a carrier.
			break
		}
		if t+1 < maxTries && t+1 < len(cands) {
			if err == netsim.ErrDeadline {
				s.Stats.Hedges++
			} else {
				s.Stats.Failovers++
			}
			out.Hedged = true
		}
	}
	return out, false
}

// runLocal executes the local arm's transfer, if it has one; the caller
// performs the local compute after seeing the verdict.
func (s *Service) runLocal(p *sim.Proc, app string, local Arm, fellBack bool) Outcome {
	out := Outcome{Mode: Local, FellBack: fellBack}
	switch {
	case local.Bulk && local.bytes() > 0:
		out.LocalErr = s.net.BulkTransfer(p, app, local.bytes(), local.Opts)
	case local.bytes() > 0 || local.ServerSec > 0:
		out.LocalErr = s.net.RPC(p, app, local.SendBytes, nil,
			time.Duration(local.ServerSec*float64(time.Second)), local.ReplyBytes, local.Opts)
	}
	return out
}
