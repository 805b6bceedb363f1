package power

import "math"

// Specialised powers for the goal-directed hot path: the energy monitor's
// smoothing weight 0.5^y on every power sample, and the SmartBattery's
// Peukert scale on every battery sync. Each returns exactly the bits
// math.Pow returns.
//
// For finite x > 0 and 0 < y < 0.5, Go's portable pow (the one every
// architecture but s390x runs) takes one path. Modf splits y into an
// integer part of 0 and a fraction of y; the fraction is below 0.5, so it
// is not shifted; the result is Exp(y*Log(x)); and the squaring loop runs
// zero times, leaving Ldexp(Exp(y*Log(x)), 0). That value lies between
// 2^-538 and 2^512, a normal float, which Ldexp by 0 returns unchanged.
// Computing Exp(y*Log(x)) directly skips only the special-case ladder,
// Modf, Frexp and Ldexp. Every other input still calls math.Pow.
// TestHalfPowMatchesMathPow, smartbattery's TestEffectiveDrainMatchesPow and
// FuzzSpecialisedPow compare the bits with math.Pow, so a Go release that
// changes math.pow fails a named test instead of moving every golden at
// once.

// lnHalf is math.Log(0.5), the logarithm pow takes on every HalfPow call.
var lnHalf = math.Log(0.5)

// HalfPow returns math.Pow(0.5, y), bit for bit.
func HalfPow(y float64) float64 {
	if 0 < y && y < 0.5 {
		return math.Exp(y * lnHalf)
	}
	return math.Pow(0.5, y)
}

// Pow returns math.Pow(x, y), bit for bit.
func Pow(x, y float64) float64 {
	if 0 < y && y < 0.5 && 0 < x && x <= math.MaxFloat64 {
		return math.Exp(y * math.Log(x))
	}
	return math.Pow(x, y)
}
