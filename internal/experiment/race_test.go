//go:build race

package experiment

// raceEnabled reports whether the race detector is on; it slows the
// simulation several-fold, so the costliest tests trim their passes.
const raceEnabled = true
