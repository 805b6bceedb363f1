package integration_test

import (
	"testing"

	"odyssey/internal/experiment"
)

// figure6CSV renders Figure 6 — 4 video clips x 6 bars, every cell with its
// per-principal breakdown — to one byte string.
func figure6CSV(trials int) string {
	g := experiment.Figure6(trials)
	out := g.Table().CSV()
	for oi := range g.Objects {
		out += g.BreakdownTable(oi).CSV()
	}
	return out
}

// TestParallelEquivalenceGate is the cross-package acceptance gate for the
// trial scheduler: a full figure rendered under an 8-worker pool must be
// byte-identical to the serial rendering. Anything less — a float summed in
// a different order, a cell merged out of sequence — fails the diff.
func TestParallelEquivalenceGate(t *testing.T) {
	experiment.SetParallelism(1)
	serial := figure6CSV(2)
	experiment.SetParallelism(8)
	t.Cleanup(func() { experiment.SetParallelism(1) })
	parallel := figure6CSV(2)
	if serial != parallel {
		t.Fatalf("parallel output diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}
