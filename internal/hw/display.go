package hw

import (
	"fmt"

	"odyssey/internal/power"
)

// BacklightMode is an illumination level for the display or one of its zones.
type BacklightMode int

const (
	// BacklightOff darkens the panel completely.
	BacklightOff BacklightMode = iota
	// BacklightDim is the reduced-illumination level.
	BacklightDim
	// BacklightBright is full illumination.
	BacklightBright
)

// String returns the mode name.
func (m BacklightMode) String() string {
	switch m {
	case BacklightOff:
		return "off"
	case BacklightDim:
		return "dim"
	case BacklightBright:
		return "bright"
	default:
		return fmt.Sprintf("BacklightMode(%d)", int(m))
	}
}

// Display models the panel with optional zoned backlighting (Section 4 of
// the paper): the screen is a grid of zones whose illumination is
// independently controlled, each zone drawing power proportional to its
// share of the panel area. A conventional display is a 1-zone instance.
type Display struct {
	acct  *power.Accountant
	comp  power.ComponentID
	prof  Profile
	zones []BacklightMode
}

// NewDisplay creates a display with the given zone count (>=1), initially
// fully bright.
func NewDisplay(acct *power.Accountant, prof Profile, zones int) *Display {
	if zones < 1 {
		//odylint:allow panicfree constructor precondition; invariant guard
		panic(fmt.Sprintf("hw: display must have at least one zone, got %d", zones))
	}
	d := &Display{acct: acct, comp: acct.Register(CompDisplay), prof: prof, zones: make([]BacklightMode, zones)}
	d.SetAll(BacklightBright)
	return d
}

// Zones returns the zone count.
func (d *Display) Zones() int { return len(d.zones) }

// modePower returns the full-panel power for a mode.
func (d *Display) modePower(m BacklightMode) float64 {
	switch m {
	case BacklightBright:
		return d.prof.DisplayBright
	case BacklightDim:
		return d.prof.DisplayDim
	default:
		return d.prof.DisplayOff
	}
}

// publish pushes the current panel draw to the accountant.
func (d *Display) publish() { d.acct.Set(d.comp, d.Power()) }

// SetAll sets every zone to mode (the conventional whole-panel control).
func (d *Display) SetAll(m BacklightMode) {
	for i := range d.zones {
		d.zones[i] = m
	}
	d.publish()
}

// SetZone sets a single zone's illumination.
func (d *Display) SetZone(i int, m BacklightMode) {
	if i < 0 || i >= len(d.zones) {
		//odylint:allow panicfree equivalent to an out-of-range slice index; invariant guard
		panic(fmt.Sprintf("hw: zone %d out of range [0,%d)", i, len(d.zones)))
	}
	d.zones[i] = m
	d.publish()
}

// Zone returns the illumination of zone i.
func (d *Display) Zone(i int) BacklightMode { return d.zones[i] }

// Power returns the display's current draw in watts.
func (d *Display) Power() float64 {
	per := 1.0 / float64(len(d.zones))
	w := 0.0
	for _, m := range d.zones {
		w += d.modePower(m) * per
	}
	return w
}
