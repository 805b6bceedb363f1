package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !approx(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !approx(got, 2.13809, 1e-4) {
		t.Errorf("StdDev = %v, want ~2.138", got)
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of one sample should be 0")
	}
	if StdDev(nil) != 0 {
		t.Error("StdDev of empty should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max should be 0")
	}
}

func TestTCritical90(t *testing.T) {
	// n=5 trials -> df=4 -> 2.132 (used for the paper's 5-trial bars).
	if got := TCritical90(4); got != 2.132 {
		t.Errorf("t(4) = %v, want 2.132", got)
	}
	// n=10 trials -> df=9 -> 1.833.
	if got := TCritical90(9); got != 1.833 {
		t.Errorf("t(9) = %v, want 1.833", got)
	}
	if got := TCritical90(500); got != 1.645 {
		t.Errorf("t(500) = %v, want normal fallback 1.645", got)
	}
	if !math.IsInf(TCritical90(0), 1) {
		t.Error("t(0) should be +Inf")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{10, 12, 11, 13, 14}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 10 || s.Max != 14 {
		t.Fatalf("summary fields wrong: %+v", s)
	}
	if !approx(s.Mean, 12, 1e-12) {
		t.Fatalf("mean %v", s.Mean)
	}
	wantCI := 2.132 * StdDev(xs) / math.Sqrt(5)
	if !approx(s.CI90, wantCI, 1e-9) {
		t.Fatalf("CI90 %v, want %v", s.CI90, wantCI)
	}
}

func TestFitLineExact(t *testing.T) {
	// E_t = 50 + 5.6*t, the paper's think-time model with P_B = 5.6 W.
	xs := []float64{0, 5, 10, 20}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 50 + 5.6*x
	}
	f := FitLine(xs, ys)
	if !approx(f.Slope, 5.6, 1e-9) || !approx(f.Intercept, 50, 1e-9) {
		t.Fatalf("fit = %+v", f)
	}
	if !approx(f.R2, 1.0, 1e-9) {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
}

func TestFitLineNoisy(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1.1, 2.9, 5.2, 6.8, 9.1}
	f := FitLine(xs, ys)
	if f.Slope < 1.8 || f.Slope > 2.2 {
		t.Fatalf("slope %v out of expected band", f.Slope)
	}
	if f.R2 < 0.98 {
		t.Fatalf("R2 %v too low for nearly-linear data", f.R2)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	f := FitLine([]float64{3, 3, 3}, []float64{1, 2, 3})
	if f.Slope != 0 || !approx(f.Intercept, 2, 1e-12) {
		t.Fatalf("degenerate fit = %+v", f)
	}
	one := FitLine([]float64{1}, []float64{7})
	if one.Slope != 0 || one.Intercept != 7 {
		t.Fatalf("single-point fit = %+v", one)
	}
}

func TestFitLineMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	FitLine([]float64{1, 2}, []float64{1})
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if !approx(Ratio(3, 4), 0.75, 1e-12) {
		t.Error("Ratio(3,4)")
	}
}

// Property: mean is within [min, max]; stddev is non-negative; CI shrinks
// as more identical batches are appended (sqrt-n behaviour).
func TestSummaryProperties(t *testing.T) {
	prop := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if s.StdDev < 0 || s.CI90 < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: FitLine recovers arbitrary affine relations exactly.
func TestFitLineRecoversAffine(t *testing.T) {
	prop := func(a8, b8 int8, n8 uint8) bool {
		n := int(n8%8) + 3
		a, b := float64(a8)/4, float64(b8)/4
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(i)
			ys[i] = a + b*float64(i)
		}
		f := FitLine(xs, ys)
		return approx(f.Intercept, a, 1e-6) && approx(f.Slope, b, 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeEdges: the empty and single-sample summaries must be usable —
// no NaNs leaking into tables, no confidence interval claimed from one
// observation.
func TestSummarizeEdges(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.CI90 != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	if math.IsNaN(s.Mean) || math.IsNaN(s.StdDev) {
		t.Fatalf("empty summary has NaNs: %+v", s)
	}
	s = Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.Min != 42 || s.Max != 42 {
		t.Fatalf("single-sample summary: %+v", s)
	}
	if s.CI90 != 0 {
		t.Fatalf("one sample cannot support a confidence interval: CI90=%v", s.CI90)
	}
	if got := s.String(); got != "42.0 ± 0.0" {
		t.Fatalf("String() = %q (doc promises one decimal place)", got)
	}
}
