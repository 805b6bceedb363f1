//go:build odysseydebug

package power

import (
	"testing"
	"time"

	"odyssey/internal/sim"
)

// TestDebugAssertionsExercised drives the accountant through component
// changes, share changes, idle periods, and a superlinear term with the
// odysseydebug cross-checks live; any accounting divergence panics.
func TestDebugAssertionsExercised(t *testing.T) {
	if !debugAssertions {
		t.Fatal("built with tag odysseydebug but debugAssertions is false")
	}
	k := sim.NewKernel(1)
	a := NewAccountant(k)
	a.SetSuperlinear(func(sum float64) float64 { return sum * 1.03 })

	set(a, "display", 1.2)
	set(a, "cpu", 0.8)
	for i := 0; i < 200; i++ {
		k.After(time.Duration(i)*50*time.Millisecond, func() {
			switch i % 4 {
			case 0:
				a.SetShares([]sim.Share{{Principal: "video", Fraction: 0.625}, {Principal: "audio", Fraction: 0.375}})
			case 1:
				set(a, "network", float64(i%7)*0.3)
			case 2:
				a.SetShares(nil) // idle
			case 3:
				set(a, "cpu", 0.2+float64(i%5)*0.4)
			}
		})
	}
	k.Run(0)
	if got := a.TotalEnergy(); got <= 0 {
		t.Fatalf("TotalEnergy = %g, want > 0", got)
	}
}
