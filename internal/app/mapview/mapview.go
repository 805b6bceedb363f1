// Package mapview implements the paper's adaptive map viewer (Anvil): it
// fetches USGS-style maps from a remote server via Odyssey and displays
// them. Fidelity is lowered two ways: filtering (dropping minor roads, or
// minor and secondary roads) and cropping (restricting the map to a
// geographic subset at full detail). The client annotates each fetch with
// the desired filtering and cropping; the server performs the operations
// before transmitting.
//
// Viewing a map includes user think time: energy spent keeping the map
// visible is part of the application's execution, per the paper.
package mapview

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/hw"
	"odyssey/internal/netsim"
	"odyssey/internal/odfs"
	"odyssey/internal/sim"
)

// Software principals appearing in profiles.
const (
	PrincipalAnvil   = "anvil"
	PrincipalX       = "X"
	PrincipalOdyssey = "odyssey"
)

// Workload coefficients (assumptions calibrated against Figure 10; see
// DESIGN.md).
const (
	// renderCPUPerMB is Anvil's vector-draw load per megabyte of map.
	renderCPUPerMB = 0.90
	// xCPUPerMB is the X server load per megabyte of map.
	xCPUPerMB = 0.30
	// requestBytes is the annotated map request size.
	requestBytes = 500.0
	// serverBaseTime + serverTimePerMB model the server-side filter and
	// crop operations.
	serverBaseTime  = 250 * time.Millisecond
	serverPerMB     = 400 * time.Millisecond
	odysseyCPUPerOp = 0.02
)

// Window geometry: the full map occupies all four zones of a 4-zone
// display (six of eight); a cropped map only two (three of eight) — the
// counts behind Figure 18.
var (
	fullMapWindow    = hw.Rect{X: 0.05, Y: 0.05, W: 0.72, H: 0.80}
	croppedMapWindow = hw.Rect{X: 0.05, Y: 0.05, W: 0.72, H: 0.45}
)

// Filter selects the feature-filtering fidelity.
type Filter int

const (
	// FullDetail keeps every feature.
	FullDetail Filter = iota
	// MinorRoadFilter omits minor roads.
	MinorRoadFilter
	// SecondaryRoadFilter omits minor and secondary roads.
	SecondaryRoadFilter
)

// String returns the filter name.
func (f Filter) String() string {
	switch f {
	case FullDetail:
		return "full-detail"
	case MinorRoadFilter:
		return "minor-road-filter"
	default:
		return "secondary-road-filter"
	}
}

// Config is one fetch fidelity.
type Config struct {
	Filter  Filter
	Cropped bool
}

// String names c as a level of the viewer's ladder, from
// "cropped+secondary-filter" up to "full-detail".
func (c Config) String() string {
	name := "full-detail"
	switch c.Filter {
	case MinorRoadFilter:
		name = "minor-filter"
	case SecondaryRoadFilter:
		name = "secondary-filter"
	}
	if c.Cropped {
		return "cropped+" + name
	}
	return name
}

// Map is one map data object. The per-city factors give the spread across
// data objects the paper reports (e.g. minor-road savings of 6-51%).
type Map struct {
	City      string
	FullBytes float64
	// MinorFactor and SecondaryFactor scale map size under each filter.
	MinorFactor     float64
	SecondaryFactor float64
	// CropFactor scales map size when cropped to half height and width
	// (detail is preserved, so the reduction is content-dependent and
	// generally less effective than filtering).
	CropFactor float64
}

// StandardMaps returns the four city maps of the evaluation.
func StandardMaps() []Map {
	return []Map{
		{City: "San Jose", FullBytes: 1_100_000, MinorFactor: 0.25, SecondaryFactor: 0.15, CropFactor: 0.32},
		{City: "Allentown", FullBytes: 450_000, MinorFactor: 0.85, SecondaryFactor: 0.38, CropFactor: 0.58},
		{City: "Boston", FullBytes: 900_000, MinorFactor: 0.55, SecondaryFactor: 0.35, CropFactor: 0.60},
		{City: "Pittsburgh", FullBytes: 640_000, MinorFactor: 0.45, SecondaryFactor: 0.28, CropFactor: 0.52},
	}
}

// Bytes returns the transmitted size of m under cfg.
func (m Map) Bytes(cfg Config) float64 {
	b := m.FullBytes
	switch cfg.Filter {
	case MinorRoadFilter:
		b *= m.MinorFactor
	case SecondaryRoadFilter:
		b *= m.SecondaryFactor
	}
	if cfg.Cropped {
		b *= m.CropFactor
	}
	return b
}

// View fetches and displays m at cfg, then holds it on screen for the
// user's think time. The display is bright throughout (under the zoned
// policy, only covered zones are lit).
func View(rig *env.Rig, p *sim.Proc, m Map, cfg Config, think time.Duration) {
	win := fullMapWindow
	if cfg.Cropped {
		win = croppedMapWindow
	}
	rig.IlluminateWindow(win)
	rig.M.CPU.RunAsync(PrincipalOdyssey, odysseyCPUPerOp, nil)

	bytes := m.Bytes(cfg)
	mb := bytes / 1e6
	serverTime := serverBaseTime + time.Duration(mb*serverPerMB.Seconds()*float64(time.Second))
	// No deadline: the fetch waits out outages and crashes, so it cannot fail.
	_ = rig.Net.RPC(p, PrincipalAnvil, requestBytes, rig.MapServer, serverTime, bytes, netsim.CallOptions{})

	rig.M.CPU.Run(p, PrincipalAnvil, renderCPUPerMB*mb)
	rig.M.CPU.Run(p, PrincipalX, xCPUPerMB*mb)

	rig.Think(p, think)
}

// thinkTime is the viewer's per-map user think time, the paper's five
// seconds.
const thinkTime = 5 * time.Second

// Viewer is the adaptive map application: four fidelity levels from
// cropped-and-filtered up to full detail. It implements core.Adaptive.
type Viewer struct {
	// Fidelity is the viewer's fetch ladder, viewerLevels.
	env.Fidelity[Config]
	rig *env.Rig
	// Warden mediates filter/crop annotation for the map data type.
	Warden Warden
}

// viewerLevels are ordered lowest fidelity first.
var viewerLevels = []Config{
	{Filter: SecondaryRoadFilter, Cropped: true},
	{Filter: SecondaryRoadFilter},
	{Filter: MinorRoadFilter},
	{Filter: FullDetail},
}

// NewViewer returns a full-fidelity viewer.
func NewViewer(rig *env.Rig) *Viewer {
	v := &Viewer{Fidelity: env.NewFidelity(viewerLevels, Config.String), rig: rig}
	v.Warden = Warden{Rig: rig}
	_ = rig.V.RegisterWarden(v.Warden)
	return v
}

// Name implements core.Adaptive.
func (v *Viewer) Name() string { return "map" }

// Config returns the fetch fidelity fetches actually request (see
// Operating).
func (v *Viewer) Config() Config { return v.Operating() }

// View fetches and displays m at the current fidelity. A dead process
// views nothing.
func (v *Viewer) View(p *sim.Proc, m Map) {
	if !v.Health.Alive() {
		return
	}
	View(v.rig, p, m, v.Config(), thinkTime)
}

// Warden is the map warden: it encapsulates the filter/crop annotations for
// the map data type and serves the namespace's type-specific operations.
type Warden struct {
	// Rig is the environment operations execute on (nil wardens can
	// still answer ConfigFor queries).
	Rig *env.Rig
}

// TypeName implements core.Warden.
func (Warden) TypeName() string { return "map" }

// FetchArgs parameterizes the "fetch" type-specific operation.
type FetchArgs struct {
	// Think is the user think time after display; a negative Think, or
	// no FetchArgs, means the viewer's five seconds.
	Think time.Duration
}

// TSOp implements odfs.TSOpWarden: "fetch" retrieves and displays the map
// object at the handle's fidelity.
func (w Warden) TSOp(p *sim.Proc, obj *odfs.Object, op string, fidelity int, args any) (any, error) {
	if op != "fetch" {
		return nil, fmt.Errorf("map warden: %w %q", odfs.ErrNoSuchOp, op)
	}
	m, ok := obj.Data.(Map)
	if !ok {
		return nil, fmt.Errorf("map warden: object %q does not hold a Map", obj.Path)
	}
	think := thinkTime
	if fa, ok := args.(FetchArgs); ok && fa.Think >= 0 {
		think = fa.Think
	}
	cfg := w.ConfigFor(fidelity)
	View(w.Rig, p, m, cfg, think)
	return m.Bytes(cfg), nil
}

// ConfigFor maps a fidelity level index to the fetch annotation.
func (Warden) ConfigFor(level int) Config { return env.LevelOf(viewerLevels, level) }
