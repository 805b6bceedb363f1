package core_test

import (
	"fmt"
	"time"

	"odyssey/internal/core"
	"odyssey/internal/sim"
)

// ExampleViceroy_Request shows the original Odyssey resource-expectation
// API: register a window on a resource; when availability leaves the
// window, Odyssey issues an upcall.
func ExampleViceroy_Request() {
	k := sim.NewKernel(1)
	v := core.NewViceroy(k)
	v.DeclareResource("bandwidth", 200_000)

	_, _ = v.Request("bandwidth", 100_000, 1e9, func(avail float64) {
		fmt.Printf("upcall: bandwidth now %.0f B/s\n", avail)
	})
	k.At(time.Second, func() { v.UpdateResource("bandwidth", 150_000) })  // inside window: silent
	k.At(2*time.Second, func() { v.UpdateResource("bandwidth", 40_000) }) // below low-water mark
	k.Run(0)
	// Output:
	// upcall: bandwidth now 40000 B/s
}
