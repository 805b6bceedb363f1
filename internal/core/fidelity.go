// Package core implements the Odyssey platform for application-aware
// adaptation, extended for energy as in the paper: a viceroy that monitors
// resource availability (including energy supply and demand) and directs
// concurrent applications, through upcalls, to adjust their data fidelity;
// type-specific wardens; and the goal-directed energy adaptation engine
// that meets user-specified battery-duration goals.
package core

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

// SetPriority changes the registration's priority — the dynamic-priority
// interface the paper describes as in progress ("we are implementing an
// interface to allow users to change priority dynamically"). The new value
// takes effect at the next adaptation decision.
func (r *Registration) SetPriority(p int) { r.Priority = p }

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
