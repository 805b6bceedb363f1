//go:build race

package sim

// raceEnabled reports whether the race detector is on; it instruments
// allocations, so allocation-count tests skip under it.
const raceEnabled = true
