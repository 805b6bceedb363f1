package power

import (
	"testing"
	"time"

	"odyssey/internal/sim"
)

// TestSteadyStateAllocatesNothing: once an accountant has seen its
// components and principals, the per-event calls index slots and reuse
// retained buffers, so none of them allocates. Each measured call runs in
// a kernel callback one millisecond after the last, so every call
// integrates a real segment.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	a.SetSuperlinear(func(sum float64) float64 { return sum*1.02 + 0.21 })
	cpu, display := a.Register("cpu"), a.Register("display")
	a.Set(display, 4.46)
	snaps := [][]sim.Share{
		{{Principal: "xanim", Fraction: 0.5}, {Principal: "X", Fraction: 0.5}},
		{{Principal: "X", Fraction: 1}},
		nil,
		{{Principal: "odyssey", Fraction: 0.25}, {Principal: "xanim", Fraction: 0.75}},
	}
	var i int
	var sink float64
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Set", func() { a.Set(cpu, float64(i%3)) }},
		{"SetShares", func() { a.SetShares(snaps[i%len(snaps)]) }},
		{"TotalEnergy", func() { sink += a.TotalEnergy() }},
		{"Power", func() { a.Set(cpu, float64(i%3)); sink += a.Power() }},
		{"PrincipalEnergy", func() { sink += a.PrincipalEnergy("xanim") }},
	} {
		step := func() { i++; tc.op() }
		run := func() {
			k.After(time.Millisecond, step)
			k.Run(0)
		}
		for w := 0; w < 16; w++ { // warm: intern every principal, grow every buffer
			run()
		}
		if n := testing.AllocsPerRun(200, run); n != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", tc.name, n)
		}
	}
	if sink <= 0 {
		t.Fatal("accessors read no energy")
	}
}
