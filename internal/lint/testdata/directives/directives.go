// Package directives is the fixture for TestDirectiveCheck. Every
// suppression directive below stands above an exact float comparison; the
// test expects a "directive" diagnostic exactly at the malformed ones.
package directives

// Justified names a known analyzer and says why: silent.
func Justified(a, b float64) bool {
	//odylint:allow floateq fixture: a well-formed directive
	return a == b
}

// TwoNames shares one well-formed directive between two known analyzers.
func TwoNames(a, b float64) bool {
	//odylint:allow floateq, mapiter fixture: a well-formed two-name directive
	return a == b
}

// Misspelled names an analyzer outside the suite, so it suppresses nothing.
func Misspelled(a, b float64) bool {
	//odylint:allow flaoteq fixture: a misspelled analyzer name
	return a == b // want: floateq
}

// OneUnknown names one known and one unknown analyzer; floateq stays
// suppressed.
func OneUnknown(a, b float64) bool {
	//odylint:allow floateq, nosuch fixture: one name outside the suite
	return a == b
}

// Unjustified names a known analyzer but gives no reason; floateq stays
// suppressed.
func Unjustified(a, b float64) bool {
	//odylint:allow floateq
	return a == b
}

// Empty names nothing, so it suppresses nothing.
func Empty(a, b float64) bool {
	//odylint:allow
	return a != b // want: floateq
}
