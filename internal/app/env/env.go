// Package env assembles the simulated testbed one experiment trial runs on:
// the ThinkPad-560X machine model, the shared wireless network, the remote
// servers, and an Odyssey viceroy. It also centralizes the two cross-app
// policies of the paper's methodology — hardware power management and the
// (projected) zoned-backlight display policy — plus jittered user think
// time, and Fidelity, the fidelity ladder every application embeds.
package env

import (
	"time"

	"odyssey/internal/core"
	"odyssey/internal/hw"
	"odyssey/internal/netsim"
	"odyssey/internal/offload"
	"odyssey/internal/sim"
)

// ThinkJitterFraction is the ±fraction of uniform noise applied to think
// times, giving trials the measurement variance the paper's error bars show.
const ThinkJitterFraction = 0.06

// Rig is one trial's hardware and software environment.
type Rig struct {
	K   *sim.Kernel
	M   *hw.Machine
	Net *netsim.Network
	V   *core.Viceroy

	// Remote servers (drawing wall power; their time costs the client
	// only waiting).
	VideoServer *netsim.Server
	JanusServer *netsim.Server
	MapServer   *netsim.Server
	WebServer   *netsim.Server

	// PowerMgmt records whether hardware power management is enabled.
	PowerMgmt bool
	// ZonedPolicy, when true, lights only the zones an application's
	// window covers (Section 4's projection); otherwise the whole panel
	// follows conventional backlight control.
	ZonedPolicy bool

	// Offload is the decision-and-execution layer over Pool, nil unless
	// EnableOffload armed it. Applications must treat nil as "take the
	// legacy code path verbatim": that is the disarmed-equals-legacy
	// byte-identity contract.
	Offload *offload.Service
	// Pool is the offload server fleet (nil when the plane is disarmed).
	Pool *netsim.Pool
}

// NewRig builds a fresh testbed for one trial. displayZones is 1 for a
// conventional panel, 4 or 8 for the zoned projections.
func NewRig(seed int64, displayZones int) *Rig {
	return NewRigProfile(seed, displayZones, hw.ThinkPad560X())
}

// NewRigProfile builds a testbed around an explicit hardware power profile —
// the fleet plane's device-class variants. NewRig(seed, zones) is exactly
// NewRigProfile(seed, zones, hw.ThinkPad560X()).
func NewRigProfile(seed int64, displayZones int, profile hw.Profile) *Rig {
	k := sim.NewKernel(seed)
	m := hw.NewMachine(k, profile, displayZones)
	return &Rig{
		K:           k,
		M:           m,
		Net:         netsim.New(m),
		V:           core.NewViceroy(k),
		VideoServer: netsim.NewServer(k, "video-server"),
		JanusServer: netsim.NewServer(k, "janus-server"),
		MapServer:   netsim.NewServer(k, "map-server"),
		WebServer:   netsim.NewServer(k, "distill-server"),
	}
}

// EnableOffload arms the offload plane: a pool of servers named
// offload-0 … offload-(n-1), seeded cross-device contention at the given
// level, and the decision service over them. The service and the pool draw
// from streams derived from seed, never the kernel RNG, so arming the
// plane does not perturb workload draws.
func (r *Rig) EnableOffload(servers int, contention float64, seed int64, cfg offload.Config) {
	if servers <= 0 {
		return
	}
	r.Pool = netsim.NewPool(r.K, "offload", servers, seed)
	r.Pool.StartContention(contention)
	r.Offload = offload.New(r.K, r.M, r.Net, r.Pool, seed+1, cfg)
}

// EnablePowerMgmt turns on the hardware power-management policies of the
// paper's managed runs: disk spin-down (starting spun down), and the
// modified communication package that keeps the WaveLAN in standby outside
// RPCs and bulk transfers.
func (r *Rig) EnablePowerMgmt() {
	r.PowerMgmt = true
	r.M.EnablePowerManagement()
	r.Net.StandbyPolicy = true
}

// IlluminateWindow applies the display policy for an application window:
// conventionally the whole panel is bright; under the zoned policy the
// window manager snaps the window to straddle the fewest zones (the paper's
// proposed "snap-to" feature) and lights exactly those, with peripheral
// zones dim — the "window in focus brightly illuminated, rest of the screen
// dim" configuration of Section 4 (this reproduces the paper's projected
// 24% / 28-29% lowest-fidelity video savings).
func (r *Rig) IlluminateWindow(win hw.Rect) {
	if !r.ZonedPolicy {
		r.M.Display.SetAll(hw.BacklightBright)
		return
	}
	g, err := hw.GridForZones(r.M.Display.Zones())
	if err != nil {
		//odylint:allow panicfree rigs are built with 1, 4 or 8 zones; another count is a caller bug, like NewDisplay's zone guard
		panic(err)
	}
	r.M.Display.IlluminateWindow(g, win, hw.BacklightBright, hw.BacklightDim)
}

// BandwidthResource is the viceroy resource name the bandwidth monitor
// publishes.
const BandwidthResource = "bandwidth"

// StartBandwidthMonitor publishes the wireless link's available bandwidth
// as a viceroy resource every period — the original Odyssey's network
// adaptation input. Availability is the fair share a flow can expect:
// capacity divided by the number of active flows (an application is not
// penalized for its own consumption). It returns the monitor's ticker so
// callers can stop it.
func (r *Rig) StartBandwidthMonitor(period time.Duration) *sim.Ticker {
	link := r.Net.Link()
	m := r.V.MonitorResource(BandwidthResource, period, func() float64 {
		n := link.Active()
		if n < 1 {
			n = 1
		}
		return link.Capacity() / float64(n)
	})
	m.Start()
	return m
}

// Think idles for the user's think time (jittered), with the display left
// in its current state. Energy consumed here is part of the application's
// execution, per the paper.
func (r *Rig) Think(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	jit := 1 + ThinkJitterFraction*(2*r.K.Rand().Float64()-1)
	p.Sleep(time.Duration(float64(d) * jit))
}
