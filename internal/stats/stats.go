// Package stats provides the small statistical toolkit the paper's
// evaluation uses: means, sample standard deviations, 90% confidence
// intervals on the mean (Student's t), least-squares linear fits for the
// think-time energy model E_t = E_0 + t*P_B, and normalization helpers for
// the summary tables.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs.
// It returns 0 for fewer than two samples.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// tCritical90 holds two-sided 90% critical values of Student's t
// distribution indexed by degrees of freedom (1-based). Values beyond the
// table fall back to the normal approximation 1.645.
var tCritical90 = []float64{
	0,                                                             // df = 0 (unused)
	6.314,                                                         // df = 1
	2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, // df 2-10
	1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, // df 11-20
	1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697, // df 21-30
}

// TCritical90 returns the two-sided 90% Student's t critical value for the
// given degrees of freedom.
func TCritical90(df int) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(tCritical90) {
		return tCritical90[df]
	}
	return 1.645
}

// Summary describes a sample: the quantities printed in the paper's tables
// and error bars.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI90   float64 // half-width of the 90% confidence interval on the mean
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
	if s.N >= 2 {
		s.CI90 = TCritical90(s.N-1) * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// String renders "mean ± ci" with one decimal place.
func (s Summary) String() string {
	return fmt.Sprintf("%.1f ± %.1f", s.Mean, s.CI90)
}

// LinearFit is a least-squares line y = Intercept + Slope*x.
type LinearFit struct {
	Intercept float64
	Slope     float64
	R2        float64
}

// FitLine computes the least-squares fit of ys against xs. It panics if the
// slices differ in length, and returns a degenerate fit (slope 0) when fewer
// than two distinct x values are given.
func FitLine(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		//odylint:allow panicfree mismatched series is a caller bug; invariant guard
		panic(fmt.Sprintf("stats: FitLine length mismatch %d vs %d", len(xs), len(ys)))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return LinearFit{Intercept: Mean(ys)}
	}
	mx, my := Mean(xs), Mean(ys)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	//odylint:allow floateq exact zero iff all x values identical; degenerate-fit guard
	if sxx == 0 {
		return LinearFit{Intercept: my}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		ssRes := 0.0
		for i := range xs {
			r := ys[i] - fit.At(xs[i])
			ssRes += r * r
		}
		fit.R2 = 1 - ssRes/syy
	} else {
		fit.R2 = 1
	}
	_ = n
	return fit
}

// At evaluates the fitted line at x.
func (f LinearFit) At(x float64) float64 { return f.Intercept + f.Slope*x }

// Ratio returns num/den, or 0 when den is 0 (used for normalized tables).
func Ratio(num, den float64) float64 {
	//odylint:allow floateq guard against exact division by zero
	if den == 0 {
		return 0
	}
	return num / den
}
