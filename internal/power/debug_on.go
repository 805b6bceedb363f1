//go:build odysseydebug

package power

// debugAssertions reports whether the odysseydebug runtime invariant
// checks are compiled in.
const debugAssertions = true

// assertConsistent cross-checks the exact integrator against both
// attribution ledgers after every integration step, with the same sums and
// tolerance as the ConservationCheck the chaos sentinels query post-run
// (audit.go). A divergence means energy was created or destroyed by an
// accounting bug - precisely the silent corruption the paper's methodology
// cannot tolerate - so under the debug tag the simulation stops
// immediately rather than producing a plausible-looking figure.
func (a *Accountant) assertConsistent() {
	if err := checkSums(a.totalEnergy, sumByName(a.comps), sumByName(a.prins), a.last); err != nil {
		//odylint:allow panicfree,hotalloc debug-only invariant: continuing would publish corrupt energy figures
		panic(err.Error())
	}
}
