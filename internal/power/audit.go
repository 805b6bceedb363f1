package power

import (
	"fmt"
	"math"
	"time"
)

// Always-queryable energy-conservation audit. The odysseydebug build tag
// compiles the same cross-check into every integration step and panics on
// divergence (debug_on.go); this file is the production face of that
// invariant: any caller — most importantly the chaos sentinel suite — can
// audit a finished run and get an error describing the divergence instead
// of a dead process. A chaos soak runs thousands of adversarial scenarios;
// an accounting bug must fail one scenario's report, not kill the worker.

// conservationTolerance returns the acceptable absolute divergence between
// an attribution ledger's sum and the exact integral: a relative term for
// rounding in the multiply-add chains plus an absolute term covering the
// sub-1e-12-watt superlinear excess integrate deliberately drops each
// segment.
func conservationTolerance(totalEnergy float64, elapsed time.Duration) float64 {
	return 1e-9*(1+math.Abs(totalEnergy)) + 1e-12*elapsed.Seconds()
}

// ConservationCheck cross-checks an energy ledger snapshot: the summed
// per-hardware-component energy and the summed per-software-principal
// energy must each equal the exact integral totalEnergy within tolerance.
// A non-nil error means energy was created or destroyed by an accounting
// bug. elapsed is the virtual time the ledger covers (it scales the
// absolute tolerance term).
func ConservationCheck(totalEnergy float64, byComponent, byPrincipal map[string]float64, elapsed time.Duration) error {
	// Sum in sorted-key order: rounding makes float addition sensitive to
	// order, and the divergence this audit reports must be reproducible.
	return checkSums(totalEnergy, sumSorted(byComponent), sumSorted(byPrincipal), elapsed)
}

// checkSums compares both ledger sums against the exact integral.
func checkSums(totalEnergy, byComp, byPrin float64, elapsed time.Duration) error {
	tol := conservationTolerance(totalEnergy, elapsed)
	if d := math.Abs(byComp - totalEnergy); d > tol {
		//odylint:allow hotalloc divergence path only: formats once, when the ledger is already corrupt
		return fmt.Errorf("power: component energy %.12g J diverged from exact integral %.12g J by %.3g J (tol %.3g) at t=%v",
			byComp, totalEnergy, d, tol, elapsed)
	}
	if d := math.Abs(byPrin - totalEnergy); d > tol {
		//odylint:allow hotalloc divergence path only: formats once, when the ledger is already corrupt
		return fmt.Errorf("power: principal energy %.12g J diverged from exact integral %.12g J by %.3g J (tol %.3g) at t=%v",
			byPrin, totalEnergy, d, tol, elapsed)
	}
	return nil
}

// sumSorted adds a ledger's values in ascending key order, so the total is
// a deterministic function of the ledger's contents. It runs below the
// accountant's integrate step, so it must not allocate: instead of
// collect-and-sort it does an O(n²) min-key selection walk, which is fine
// for ledgers that never exceed a couple dozen principals.
func sumSorted(m map[string]float64) float64 {
	var sum float64
	var prev string
	started := false
	for n := len(m); n > 0; n-- {
		var best string
		haveBest := false
		//odylint:allow mapiter min-key selection: each pass picks the smallest key above the previous one, so the fold order is the sorted key order regardless of iteration order
		for k := range m {
			if started && k <= prev {
				continue
			}
			if !haveBest || k < best {
				best = k
				haveBest = true
			}
		}
		sum += m[best]
		prev = best
		started = true
	}
	return sum
}

// sumByName adds the booked slots' energy in ascending name order, the
// order sumSorted uses on the equivalent map, with the same allocation-free
// min-name selection walk.
func sumByName(slots []slot) float64 {
	var sum float64
	var prev string
	started := false
	for {
		best := -1
		for i := range slots {
			s := &slots[i]
			if !s.booked || (started && s.name <= prev) {
				continue
			}
			if best < 0 || s.name < slots[best].name {
				best = i
			}
		}
		if best < 0 {
			return sum
		}
		sum += slots[best].energy
		prev = slots[best].name
		started = true
	}
}
