//go:build odysseydebug

package power

// debugAssertions reports whether the odysseydebug runtime invariant
// checks are compiled in.
const debugAssertions = true

// assertConsistent cross-checks the exact integrator against both
// attribution ledgers after every integration step, with the same sums and
// tolerance as the ConservationCheck the chaos sentinels query post-run
// (audit.go). The component side is the booked ledger plus the window not
// yet flushed into it, at the current total draw, so the audit leaves the
// batched ledger as a default build books it. A divergence means energy
// was created or destroyed by an accounting bug - precisely the silent
// corruption the paper's methodology cannot tolerate - so under the debug
// tag the simulation stops immediately rather than producing a
// plausible-looking figure.
func (a *Accountant) assertConsistent() {
	byComp := sumByName(a.comps) + a.Power()*a.pendingDt
	if err := checkSums(a.totalEnergy, byComp, sumByName(a.prins), a.last); err != nil {
		//odylint:allow panicfree,hotalloc debug-only invariant: continuing would publish corrupt energy figures
		panic(err.Error())
	}
}
