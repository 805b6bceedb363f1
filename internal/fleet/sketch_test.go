package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile computes the nearest-rank quantile the sketch promises to
// approximate, from the raw values.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[rank]
}

// TestSketchErrorBounds checks the advertised relative error bound against
// exact quantiles on known distributions: uniform, exponential (heavy
// head), and lognormal (heavy tail, five decades of dynamic range).
func TestSketchErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return 1 + 999*rng.Float64() }},
		{"exponential", func() float64 { return rng.ExpFloat64() * 120 }},
		{"lognormal", func() float64 { return math.Exp(rng.NormFloat64()*2 + 3) }},
	}
	qs := []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}
	for _, d := range dists {
		s := NewSketch()
		vals := make([]float64, 0, 50_000)
		for i := 0; i < 50_000; i++ {
			v := d.draw()
			vals = append(vals, v)
			s.Observe(v)
		}
		sort.Float64s(vals)
		if s.Count() != int64(len(vals)) {
			t.Fatalf("%s: count %d, want %d", d.name, s.Count(), len(vals))
		}
		bound := s.RelErrBound()
		for _, q := range qs {
			got := s.Quantile(q)
			want := exactQuantile(vals, q)
			relErr := math.Abs(got-want) / want
			if relErr > bound {
				t.Errorf("%s p%.0f: sketch %.4f vs exact %.4f (rel err %.4f > bound %.4f)",
					d.name, 100*q, got, want, relErr, bound)
			}
		}
	}
}

// count returns the count of bucket idx, 0 outside the window.
func (w *window) count(idx int) int64 {
	if i := idx - w.base; i >= 0 && i < len(w.counts) {
		return w.counts[i]
	}
	return 0
}

// sketchDiff compares the contents of two sketches: every bucket index of
// both signs, the zero count and n. It returns the first difference, or ""
// when they hold the same counts.
func sketchDiff(a, b *Sketch) string {
	for i := 0; i < sketchBuckets; i++ {
		if x, y := a.pos.count(i), b.pos.count(i); x != y {
			return fmt.Sprintf("positive bucket %d holds %d and %d", i, x, y)
		}
		if x, y := a.neg.count(i), b.neg.count(i); x != y {
			return fmt.Sprintf("negative bucket %d holds %d and %d", i, x, y)
		}
	}
	if a.zero != b.zero {
		return fmt.Sprintf("zero count %d and %d", a.zero, b.zero)
	}
	if a.n != b.n {
		return fmt.Sprintf("n %d and %d", a.n, b.n)
	}
	return ""
}

// clone copies a sketch by merging it into an empty one; a struct copy
// would share its bucket windows.
func clone(s *Sketch) *Sketch {
	c := NewSketch()
	c.Merge(s)
	return c
}

// observed returns a sketch that has observed vals.
func observed(vals ...float64) *Sketch {
	s := NewSketch()
	for _, v := range vals {
		s.Observe(v)
	}
	return s
}

// TestSketchMergeCommutative checks that merge(a,b) and merge(b,a) hold the
// same counts in every bucket, so every quantile and sum derived from them
// is byte-identical.
func TestSketchMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := NewSketch(), NewSketch()
	for i := 0; i < 10_000; i++ {
		a.Observe(rng.ExpFloat64() * 100)
		b.Observe(rng.NormFloat64() * 50) // includes negatives
		if i%500 == 0 {
			b.Observe(0)
		}
	}
	ab, ba := clone(a), clone(b)
	ab.Merge(b)
	ba.Merge(a)
	if d := sketchDiff(ab, ba); d != "" {
		t.Fatalf("merge(a,b) and merge(b,a) differ: %s", d)
	}
	if ab.Count() != a.Count()+b.Count() {
		t.Fatalf("merged count %d, want %d", ab.Count(), a.Count()+b.Count())
	}
	// Merge must also match single-sketch observation of the union.
	for _, q := range []float64{0.05, 0.5, 0.95} {
		u := NewSketch()
		u.Merge(a)
		u.Merge(b)
		if u.Quantile(q) != ab.Quantile(q) {
			t.Errorf("p%.0f differs between merge orders", 100*q)
		}
	}
}

// TestSketchMergeDisjointWindows merges a sketch whose values all lie
// below another's into it, and the other way round, so the merged window
// grows at its low end in one order and at its high end in the other. Each
// result must hold exactly the counts of one sketch observing the union.
func TestSketchMergeDisjointWindows(t *testing.T) {
	low := []float64{1e-6, 3e-6, 0.002, -1e-5, -0.004, 0}
	high := []float64{5e4, 7.5e8, 7.5e8, 1e11, -2e6, -9e9}
	union := observed(append(append([]float64{}, low...), high...)...)
	for _, c := range []struct {
		name      string
		into, add []float64
	}{{"low into high", high, low}, {"high into low", low, high}} {
		m := observed(c.into...)
		m.Merge(observed(c.add...))
		if d := sketchDiff(m, union); d != "" {
			t.Errorf("%s: merged sketch differs from observing the union: %s", c.name, d)
		}
	}
}

// TestSketchSignsAndExtremes covers the zero bucket, the negative mirror,
// and the clamping of out-of-range magnitudes.
func TestSketchSignsAndExtremes(t *testing.T) {
	s := NewSketch()
	for _, v := range []float64{-100, -1, 0, 0, 1, 100} {
		s.Observe(v)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("median of symmetric set = %v, want 0", got)
	}
	if got := s.Quantile(0); got >= -99 {
		t.Errorf("p0 = %v, want ~-100", got)
	}
	if got := s.Quantile(1); got <= 99 {
		t.Errorf("p100 = %v, want ~+100", got)
	}

	ext := NewSketch()
	ext.Observe(math.Inf(1))
	ext.Observe(math.Inf(-1))
	ext.Observe(1e300)
	ext.Observe(5e-20)
	ext.Observe(math.NaN())
	if ext.Count() != 4 {
		t.Fatalf("count %d, want 4 (NaN ignored)", ext.Count())
	}
	if got := ext.Quantile(1); math.IsInf(got, 0) || got <= 0 {
		t.Errorf("clamped +Inf quantile = %v, want large finite positive", got)
	}

	// Quantiles must be monotone in q.
	rng := rand.New(rand.NewSource(3))
	m := NewSketch()
	for i := 0; i < 5000; i++ {
		m.Observe(rng.NormFloat64() * 10)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := m.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%.2f: %v < %v", q, v, prev)
		}
		prev = v
	}
}

// TestSketchApproxSum checks the midpoint-sum estimate against the true
// sum within the relative error bound.
func TestSketchApproxSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSketch()
	var exact float64
	for i := 0; i < 20_000; i++ {
		v := rng.ExpFloat64() * 7
		exact += v
		s.Observe(v)
	}
	got := s.ApproxSum()
	if rel := math.Abs(got-exact) / exact; rel > s.RelErrBound() {
		t.Fatalf("approx sum %.2f vs exact %.2f (rel err %.5f)", got, exact, rel)
	}
}

// malformedSketches are journal lines the sketch decoder must reject: three
// keys naming one bucket (the kept count would depend on map order), a
// negative count, and an n the buckets do not hold.
var malformedSketches = []string{
	`{"pos":{"100":5,"0100":7,"+100":9},"n":1}`,
	`{"pos":{"100":-3},"n":10}`,
	`{"pos":{"100":1},"n":1000}`,
}

// TestSketchRejectsMalformed: a sketch line that is not a valid sketch is a
// decode error that leaves the target untouched, not a sketch whose counts
// or quantiles are wrong.
func TestSketchRejectsMalformed(t *testing.T) {
	for _, line := range malformedSketches {
		s := observed(42, -7)
		want := clone(s)
		if err := s.UnmarshalJSON([]byte(line)); err == nil {
			t.Errorf("%s decoded without error: count %d, median %v", line, s.Count(), s.Quantile(0.5))
		} else if d := sketchDiff(s, want); d != "" {
			t.Errorf("%s: rejected decode changed the sketch: %s", line, d)
		}
	}
	// Counts that add past the int64 range are rejected, not wrapped.
	over := fmt.Sprintf(`{"pos":{"1":%d,"2":%d},"n":-2}`, int64(math.MaxInt64), int64(math.MaxInt64))
	if err := NewSketch().UnmarshalJSON([]byte(over)); err == nil {
		t.Errorf("%s decoded without error", over)
	}
}

// TestSketchQuantileAtInt64Range: a sketch holding MaxInt64 zeros, which
// the decoder accepts, reports 0 at every quantile. Its top rank rounds to
// 2^63 as a float, past the int64 range.
func TestSketchQuantileAtInt64Range(t *testing.T) {
	s := NewSketch()
	line := fmt.Sprintf(`{"zero":%d,"n":%d}`, int64(math.MaxInt64), int64(math.MaxInt64))
	if err := s.UnmarshalJSON([]byte(line)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("p%v = %v, want 0", q*100, got)
		}
	}
}
