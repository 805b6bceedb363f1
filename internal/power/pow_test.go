package power

import (
	"math"
	"math/rand"
	"testing"
)

// TestHalfPowMatchesMathPow sweeps 11.5M exponents through HalfPow and
// compares each result's bits with math.Pow(0.5, y): uniform draws over
// the specialised range (0, 0.5), tiny exponents down through the
// subnormals (the energy monitor's y is 1/remaining seconds, so long goals
// give tiny ones), the last million floats below 0.5, and the fallback at
// 0.5 and above, at zero and below, and at the non-finite values.
func TestHalfPowMatchesMathPow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var n, specialised int
	check := func(y float64) {
		n++
		if 0 < y && y < 0.5 {
			specialised++
		}
		got, want := HalfPow(y), math.Pow(0.5, y)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("HalfPow(%v) = %v (%#x), math.Pow(0.5, %v) = %v (%#x)",
				y, got, math.Float64bits(got), y, want, math.Float64bits(want))
		}
	}
	for i := 0; i < 4_000_000; i++ {
		check(0.5 * rng.Float64())
	}
	for i := 0; i < 2_000_000; i++ { // log-uniform over every normal exponent below 0.5
		check(math.Ldexp(1+rng.Float64(), -2-rng.Intn(1021)))
	}
	for i := 0; i < 1_000_000; i++ { // subnormals
		check(math.Float64frombits(rng.Uint64() & (1<<52 - 1)))
	}
	y := 0.5
	for i := 0; i < 1_000_000; i++ { // the floats just below 0.5
		y = math.Nextafter(y, 0)
		check(y)
	}
	y = 0.5
	for i := 0; i < 500_000; i++ { // 0.5 and the floats just above it
		check(y)
		y = math.Nextafter(y, 1)
	}
	for i := 0; i < 1_000_000; i++ { // the fallback at and above 0.5
		check(0.5 + 100*rng.Float64())
		check(math.Ldexp(1+rng.Float64(), rng.Intn(1024)))
	}
	for i := 0; i < 500_000; i++ { // and below 0
		check(-0.5 * rng.Float64())
		check(-math.Ldexp(1+rng.Float64(), -rng.Intn(1074)))
	}
	for _, y := range []float64{0, math.Copysign(0, -1), 1, math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		check(y)
	}
	if n < 10_000_000 || specialised < 8_000_000 {
		t.Fatalf("swept %d exponents, %d in the specialised range; want at least 10M and 8M", n, specialised)
	}
}

// FuzzSpecialisedPow checks HalfPow(y) against math.Pow(0.5, y) and Pow(x,
// y) against math.Pow(x, y), bit for bit. The seeds are the energy
// monitor's smoothing exponents over a range of goals, Peukert scales
// either side of the rated current, the ends of the specialised range,
// exponents past it at which Exp(y*Log(x)) differs from math.Pow (10.1 for
// x = 0.5, 1 for x = 3, 0.9 for x = 20), and the fallback's special values.
func FuzzSpecialisedPow(f *testing.F) {
	for _, seed := range [][2]float64{
		{0.5, 1.0 / 7200}, {0.5, 1.0 / 60}, {0.5, 0.25}, {0.5, 0.5}, {0.5, 0.75}, {0.5, 10.1},
		{3.2, 0.08}, {0.4, 0.3}, {1, 0.2}, {20, 0.499999}, {1.5, 1}, {3, 1}, {20, 0.9},
		{0, 0.1}, {math.SmallestNonzeroFloat64, 0.4999}, {math.MaxFloat64, 0.4999},
		{-2, 0.1}, {math.Inf(1), 0.1}, {2, math.SmallestNonzeroFloat64}, {2, -0.1},
		{math.NaN(), 0.1}, {2, math.NaN()},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, x, y float64) {
		if got, want := HalfPow(y), math.Pow(0.5, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("HalfPow(%v) = %v, math.Pow(0.5, %v) = %v", y, got, y, want)
		}
		if got, want := Pow(x, y), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pow(%v, %v) = %v, math.Pow = %v", x, y, got, want)
		}
	})
}
