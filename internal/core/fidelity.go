// Package core implements the Odyssey platform for application-aware
// adaptation, extended for energy as in the paper: a viceroy that monitors
// resource availability (including energy supply and demand) and directs
// concurrent applications, through upcalls, to adjust their data fidelity;
// type-specific wardens; and the goal-directed energy adaptation engine
// that meets user-specified battery-duration goals.
package core

import "fmt"

// Adaptive is implemented by applications that register fidelity levels
// with Odyssey. Levels are ordered from 0 (lowest fidelity, least energy)
// to len(Levels())-1 (full fidelity); the set is fixed once the application
// registers. SetLevel is the upcall through which the viceroy directs
// adaptation; applications apply the new fidelity at their next operation
// boundary, as the paper's applications do.
type Adaptive interface {
	// Name identifies the application in traces and statistics.
	Name() string
	// Levels returns the ordered fidelity level names, lowest first.
	Levels() []string
	// Level returns the current fidelity index.
	Level() int
	// SetLevel is the adaptation upcall.
	SetLevel(level int)
}

// Registration tracks one adaptive application under viceroy control.
type Registration struct {
	App Adaptive
	// Priority orders degradation: lower-priority applications are
	// degraded first and upgraded last. Priorities are static in the
	// prototype, per the paper.
	Priority int

	// Adaptations counts fidelity changes directed by the viceroy.
	Adaptations int

	// excluded removes the registration from adaptation decisions without
	// deregistering it. The supervision plane excludes an application
	// while it is being restarted or after quarantine: directing upcalls
	// at a dead process "succeeds" without effect, so the monitor would
	// otherwise loop on it forever and never degrade the live ones.
	excluded bool

	// levels is len(App.Levels()), read once at registration: several
	// applications build that slice afresh on every call.
	levels int
	// sortedPriority is Priority as of the viceroy's last priority sort;
	// a mismatch tells byPriority to sort again.
	sortedPriority int
}

// SetExcluded marks the registration in or out of adaptation decisions.
func (r *Registration) SetExcluded(v bool) { r.excluded = v }

// Excluded reports whether the monitor is skipping this registration.
func (r *Registration) Excluded() bool { return r.excluded }

// NumLevels reports how many fidelity levels the application registered.
func (r *Registration) NumLevels() int { return r.levels }

// clamp bounds lvl to the application's valid range.
func (r *Registration) clamp(lvl int) int {
	if lvl < 0 {
		return 0
	}
	if lvl >= r.levels {
		return r.levels - 1
	}
	return lvl
}

// Warden is a type-specific Odyssey component: it encapsulates the
// knowledge of how one data type (video, speech, map, web image) is
// degraded and mediates between the application and the servers that store
// or transform the data.
type Warden interface {
	// TypeName identifies the data type the warden manages.
	TypeName() string
}

// FidelityDimension is a helper for applications whose fidelity is a
// composite of several knobs (the video player trades both lossy
// compression and window size). It maps a single ordered level index onto a
// set of named dimension values.
type FidelityDimension struct {
	Name   string
	Values []string
}

// FidelitySpace enumerates composite fidelity levels in increasing order.
type FidelitySpace struct {
	levels []string
	coords [][]int
	dims   []FidelityDimension
}

// NewFidelitySpace builds a space from explicit (name, coordinates) pairs,
// lowest fidelity first. The coordinates index into the dimensions and are
// retrievable per level; this keeps composite adaptation policies explicit
// and auditable rather than implied by enumeration order.
func NewFidelitySpace(dims []FidelityDimension) *FidelitySpace {
	return &FidelitySpace{dims: dims}
}

// Add appends a level with the given display name and per-dimension
// coordinate indexes, returning its level index.
func (fs *FidelitySpace) Add(name string, coords ...int) int {
	if len(coords) != len(fs.dims) {
		//odylint:allow panicfree malformed fidelity space is a registration bug; invariant guard
		panic(fmt.Sprintf("core: level %q has %d coords for %d dimensions", name, len(coords), len(fs.dims)))
	}
	for i, c := range coords {
		if c < 0 || c >= len(fs.dims[i].Values) {
			//odylint:allow panicfree malformed fidelity space is a registration bug; invariant guard
			panic(fmt.Sprintf("core: level %q coord %d out of range for dimension %q", name, c, fs.dims[i].Name))
		}
	}
	fs.levels = append(fs.levels, name)
	cp := append([]int(nil), coords...)
	fs.coords = append(fs.coords, cp)
	return len(fs.levels) - 1
}

// Levels returns the ordered level names.
func (fs *FidelitySpace) Levels() []string { return fs.levels }

// Coord returns the value index of dimension dim at level lvl.
func (fs *FidelitySpace) Coord(lvl, dim int) int { return fs.coords[lvl][dim] }

// Value returns the value name of dimension dim at level lvl.
func (fs *FidelitySpace) Value(lvl, dim int) string {
	return fs.dims[dim].Values[fs.coords[lvl][dim]]
}
