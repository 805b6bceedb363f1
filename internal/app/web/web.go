// Package web implements the paper's adaptive Web browser: an unmodified
// Netscape analog whose requests are routed to a client-side proxy that
// interacts with Odyssey, with a distillation server on the far side of the
// wireless link transcoding GIF images to lossy JPEG at the fidelity the
// client annotates on each request (control of fidelity is at the client,
// unlike Fox et al.'s proxy-driven scheme).
//
// As with the map viewer, user think time after an image is displayed is
// part of the application's execution.
package web

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/hw"
	"odyssey/internal/netsim"
	"odyssey/internal/odfs"
	"odyssey/internal/offload"
	"odyssey/internal/sim"
)

// Software principals appearing in profiles.
const (
	PrincipalNetscape = "netscape"
	PrincipalProxy    = "proxy"
	PrincipalX        = "X"
	PrincipalOdyssey  = "odyssey"
)

// Workload coefficients (assumptions calibrated against Figure 13; see
// DESIGN.md).
const (
	// layoutCPU is Netscape's fixed page-layout cost per image page.
	layoutCPU = 0.45
	// decodeCPUPerMB is image-decode load per megabyte delivered.
	decodeCPUPerMB = 2.2
	// xCPUBase + xCPUPerMB model the X server's blit work.
	xCPUBase  = 0.12
	xCPUPerMB = 0.40
	// proxyCPU is the client-side proxy's per-request overhead.
	proxyCPU = 0.06
	// requestBytes is the HTTP request size.
	requestBytes = 600.0
	// distillBase + distillPerMB model the distillation server's
	// transcode time as a function of the original image size.
	distillBase        = 80 * time.Millisecond
	distillPerMB       = 1800 * time.Millisecond
	distillPassThrough = 80 * time.Millisecond
	// odysseyCPUPerOp is Odyssey bookkeeping per request.
	odysseyCPUPerOp = 0.02
	// minImageBytes floors the distilled size: headers and tiny images
	// do not shrink.
	minImageBytes = 110.0
	// clientDistillCPUPerMB is the client cpu-seconds to distill one
	// megabyte of original image locally when the offload plane places
	// distillation on the mobile host (assumption: the 560X is slower at
	// it than the wall-powered distiller's 1.8 s/MB).
	clientDistillCPUPerMB = 2.8
	// originTime is the origin server's response time when the proxy is
	// bypassed and the image is fetched undistilled.
	originTime = 100 * time.Millisecond
)

// fetchOpts bounds every image transfer: one retry, each attempt cut off
// after 3 s, so a dead proxy or link degrades to the bypass or the cache.
var fetchOpts = netsim.CallOptions{Timeout: 3 * time.Second, Attempts: 2}

// netscapeWindow: Netscape was almost full-screen at all fidelities in the
// paper's experiments, so zoned backlighting has little to offer it.
var netscapeWindow = hw.Rect{X: 0.01, Y: 0.01, W: 0.97, H: 0.95}

// Quality is the JPEG quality requested from the distillation server.
// FullFidelity delivers the original image unchanged.
type Quality int

// The qualities of Figure 13.
const (
	JPEG5 Quality = iota
	JPEG25
	JPEG50
	JPEG75
	FullFidelity
)

// String returns the quality name.
func (q Quality) String() string {
	switch q {
	case JPEG5:
		return "JPEG-5"
	case JPEG25:
		return "JPEG-25"
	case JPEG50:
		return "JPEG-50"
	case JPEG75:
		return "JPEG-75"
	default:
		return "full-fidelity"
	}
}

// sizeFactor scales original image bytes for each quality.
func (q Quality) sizeFactor() float64 {
	switch q {
	case JPEG5:
		return 0.12
	case JPEG25:
		return 0.25
	case JPEG50:
		return 0.40
	case JPEG75:
		return 0.55
	default:
		return 1.0
	}
}

// Image is one Web data object.
type Image struct {
	Name     string
	GIFBytes float64
}

// StandardImages returns the four GIF images of the evaluation
// (110 B to 175 KB).
func StandardImages() []Image {
	return []Image{
		{Name: "Image 1", GIFBytes: 110},
		{Name: "Image 2", GIFBytes: 22_000},
		{Name: "Image 3", GIFBytes: 81_000},
		{Name: "Image 4", GIFBytes: 175_000},
	}
}

// DeliveredBytes returns the size of img after distillation at q.
func DeliveredBytes(img Image, q Quality) float64 {
	b := img.GIFBytes * q.sizeFactor()
	if b < minImageBytes {
		b = minImageBytes
	}
	if b > img.GIFBytes {
		b = img.GIFBytes
	}
	return b
}

// FetchOutcome reports how a page was actually retrieved.
type FetchOutcome struct {
	// Bytes is what was delivered (larger than requested when the proxy
	// was bypassed and the original came down instead).
	Bytes float64
	// Bypassed: the distillation proxy was unreachable; the original
	// image was fetched full-fidelity from the origin.
	Bypassed bool
	// Cached: the network was unusable; a previously fetched copy was
	// displayed without any transfer.
	Cached bool
}

// Fetch retrieves and displays img at quality q, then holds it on screen
// for the user's think time. If the distillation proxy fails, the fetch
// bypasses it (full-fidelity origin fetch); if the network itself is
// unusable, a cached copy is displayed.
func Fetch(rig *env.Rig, p *sim.Proc, img Image, q Quality, think time.Duration) FetchOutcome {
	rig.IlluminateWindow(netscapeWindow)
	rig.M.CPU.RunAsync(PrincipalOdyssey, odysseyCPUPerOp, nil)
	rig.M.CPU.Run(p, PrincipalProxy, proxyCPU)

	if rig.Offload != nil && q != FullFidelity {
		// The offload plane owns distillation placement: pool member or
		// the client itself, with the envelope handling failures.
		return fetchOffload(rig, p, img, q, think)
	}

	// Every request passes through the distillation server; full
	// fidelity is a pass-through, lower qualities pay the transcode.
	serverTime := distillPassThrough
	if q != FullFidelity {
		mbOrig := img.GIFBytes / 1e6
		serverTime = distillBase + time.Duration(mbOrig*distillPerMB.Seconds()*float64(time.Second))
	}
	out := FetchOutcome{Bytes: DeliveredBytes(img, q)}
	err := rig.Net.RPC(p, PrincipalProxy, requestBytes, rig.WebServer, serverTime, out.Bytes, fetchOpts)
	if err != nil {
		// Distillation is an optimization, not a dependency: bypass the
		// proxy and fetch the original from the origin server.
		out.Bytes = img.GIFBytes
		out.Bypassed = true
		err = rig.Net.RPC(p, PrincipalProxy, requestBytes, nil, originTime, out.Bytes, fetchOpts)
	}
	if err != nil {
		// The link itself is unusable; show the cached copy.
		out.Bytes = DeliveredBytes(img, q)
		out.Bypassed = false
		out.Cached = true
	}

	mb := out.Bytes / 1e6
	rig.M.CPU.Run(p, PrincipalNetscape, layoutCPU+decodeCPUPerMB*mb)
	rig.M.CPU.Run(p, PrincipalX, xCPUBase+xCPUPerMB*mb)

	rig.Think(p, think)
	return out
}

// fetchOffload places one distillation through the offload service: the
// remote arm distills on a pool member and delivers the reduced image; the
// local arm fetches the original from the origin and distills on the
// client (charged to the proxy principal, which runs the local distiller).
// Either way the displayed image is the distilled one; only when even the
// origin fetch fails does the cached copy appear.
func fetchOffload(rig *env.Rig, p *sim.Proc, img Image, q Quality, think time.Duration) FetchOutcome {
	mbOrig := img.GIFBytes / 1e6
	distillSec := distillBase.Seconds() + mbOrig*distillPerMB.Seconds()
	local := offload.Arm{
		CPU:        clientDistillCPUPerMB * mbOrig,
		SendBytes:  requestBytes,
		ReplyBytes: img.GIFBytes,
		ServerSec:  originTime.Seconds(),
		Opts:       fetchOpts,
	}
	remote := &offload.Arm{
		SendBytes:  requestBytes,
		ReplyBytes: DeliveredBytes(img, q),
		ServerSec:  distillSec,
	}
	out := FetchOutcome{Bytes: DeliveredBytes(img, q)}
	o := rig.Offload.Do(p, PrincipalProxy, local, remote, nil)
	switch {
	case o.Mode == offload.Remote:
		// Distilled on the pool; the reduced bytes are already here.
	case o.LocalErr != nil:
		// Even the origin was unreachable; show the cached copy.
		out.Cached = true
	default:
		// Original fetched; distill it on the client.
		rig.M.CPU.Run(p, PrincipalProxy, clientDistillCPUPerMB*mbOrig)
	}

	mb := out.Bytes / 1e6
	rig.M.CPU.Run(p, PrincipalNetscape, layoutCPU+decodeCPUPerMB*mb)
	rig.M.CPU.Run(p, PrincipalX, xCPUBase+xCPUPerMB*mb)

	rig.Think(p, think)
	return out
}

// thinkTime is the browser's per-page user think time, the paper's five
// seconds.
const thinkTime = 5 * time.Second

// Browser is the adaptive Web application: five fidelity levels from JPEG-5
// up to the original image. It implements core.Adaptive.
type Browser struct {
	// Fidelity is the browser's distillation ladder, browserLevels.
	env.Fidelity[Quality]
	rig *env.Rig
	// Warden mediates distillation requests for the Web image type.
	Warden Warden
	// Bypasses and CacheHits count fetches that could not use the
	// distillation proxy.
	Bypasses  int
	CacheHits int
}

var browserLevels = []Quality{JPEG5, JPEG25, JPEG50, JPEG75, FullFidelity}

// NewBrowser returns a full-fidelity browser.
func NewBrowser(rig *env.Rig) *Browser {
	b := &Browser{Fidelity: env.NewFidelity(browserLevels, Quality.String), rig: rig}
	b.Warden = Warden{Rig: rig}
	_ = rig.V.RegisterWarden(b.Warden)
	return b
}

// Name implements core.Adaptive.
func (b *Browser) Name() string { return "web" }

// Quality returns the distillation quality fetches actually request (see
// Operating).
func (b *Browser) Quality() Quality { return b.Operating() }

// Fetch retrieves and displays img at the current fidelity, reporting how
// the page was actually retrieved. A dead process fetches nothing.
func (b *Browser) Fetch(p *sim.Proc, img Image) FetchOutcome {
	if !b.Health.Alive() {
		return FetchOutcome{}
	}
	out := Fetch(b.rig, p, img, b.Quality(), thinkTime)
	if out.Bypassed {
		b.Bypasses++
	}
	if out.Cached {
		b.CacheHits++
	}
	return out
}

// Warden is the Web warden: it encapsulates distillation-request annotation
// for the Web image data type and serves the namespace's type-specific
// operations.
type Warden struct {
	// Rig is the environment operations execute on.
	Rig *env.Rig
}

// TypeName implements core.Warden.
func (Warden) TypeName() string { return "web" }

// FetchArgs parameterizes the "fetch" type-specific operation.
type FetchArgs struct {
	// Think is the user think time after display; a negative Think, or
	// no FetchArgs, means the browser's five seconds.
	Think time.Duration
}

// TSOp implements odfs.TSOpWarden: "fetch" retrieves and displays the image
// object, distilled to the handle's fidelity.
func (wd Warden) TSOp(p *sim.Proc, obj *odfs.Object, op string, fidelity int, args any) (any, error) {
	if op != "fetch" {
		return nil, fmt.Errorf("web warden: %w %q", odfs.ErrNoSuchOp, op)
	}
	img, ok := obj.Data.(Image)
	if !ok {
		return nil, fmt.Errorf("web warden: object %q does not hold an Image", obj.Path)
	}
	think := thinkTime
	if fa, ok := args.(FetchArgs); ok && fa.Think >= 0 {
		think = fa.Think
	}
	q := wd.QualityFor(fidelity)
	Fetch(wd.Rig, p, img, q, think)
	return DeliveredBytes(img, q), nil
}

// QualityFor maps a fidelity level index to the requested quality.
func (Warden) QualityFor(level int) Quality { return env.LevelOf(browserLevels, level) }
