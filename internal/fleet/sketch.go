// Package fleet simulates large device populations: N independent device
// rigs (each a private kernel, per the experiment scheduler's private-rig
// contract) are driven from a shared seeded population model — a
// device-class mix over hardware power-profile variants, a user-behavior
// mix over workload intensity and application subsets, and staggered
// session start/stop churn — and reduced into mergeable streaming
// aggregates, so a million-device soak runs in O(workers) memory and ends
// in a fleet scorecard with percentile dashboards.
//
// Everything derives deterministically from one fleet seed: session i of a
// run is a pure function of (population, seed, i), shard aggregates fold
// sessions in index order, and shards merge in fixed shard order, so a
// fleet scorecard is byte-identical at any -parallel width.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// The quantile sketch: a log-linear histogram in the HDR-histogram family.
// Positive values are bucketed by power-of-two octave and a linear
// sub-bucket within the octave, so the representative value of a bucket is
// within a fixed relative error of every value it absorbs. Counts are
// integers, which makes Merge exactly commutative and associative — the
// property the fleet reduction needs for byte-identical scorecards at any
// worker count.
const (
	// sketchSubBits fixes the sub-bucket resolution: 1<<sketchSubBits
	// linear sub-buckets per octave, for a relative quantile error bound
	// of 1/(2<<sketchSubBits) (see Sketch.RelErrBound).
	sketchSubBits = 5
	sketchSub     = 1 << sketchSubBits

	// Octaves below sketchMinExp (values under ~5e-7) collapse into the
	// bottom bucket; octaves at or above sketchMaxExp (values over ~1e12)
	// clamp into the top one. Fleet metrics — joules, seconds, rates —
	// live comfortably inside that range.
	sketchMinExp = -21
	sketchMaxExp = 40

	sketchBuckets = (sketchMaxExp - sketchMinExp + 1) * sketchSub
)

// Sketch is a mergeable quantile sketch over float64 observations. The
// zero value is not usable; create one with NewSketch. A struct copy shares
// its bucket windows with the original; merge into a NewSketch to copy one.
type Sketch struct {
	pos  window // positive values, ascending magnitude
	neg  window // negative values, ascending magnitude
	zero int64  // exact zeros (and values too small to bucket)
	n    int64
}

// window holds one sign's bucket counts from its lowest to its highest
// occupied bucket: counts[i] is the count of bucket base+i. It grows on
// demand, so a sketch that has seen a few values holds a few buckets, not
// all sketchBuckets of them.
type window struct {
	base   int
	counts []int64
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch { return &Sketch{} }

// cover grows w to hold buckets lo through hi.
func (w *window) cover(lo, hi int) {
	if len(w.counts) == 0 {
		w.base, w.counts = lo, make([]int64, hi-lo+1)
		return
	}
	if top := w.base + len(w.counts) - 1; hi > top {
		w.counts = append(w.counts, make([]int64, hi-top)...)
	}
	if lo < w.base {
		grown := make([]int64, w.base-lo+len(w.counts))
		copy(grown[w.base-lo:], w.counts)
		w.base, w.counts = lo, grown
	}
}

// add adds c to bucket idx.
func (w *window) add(idx int, c int64) {
	w.cover(idx, idx)
	w.counts[idx-w.base] += c
}

// merge adds o's counts into w.
func (w *window) merge(o *window) {
	if len(o.counts) == 0 {
		return
	}
	w.cover(o.base, o.base+len(o.counts)-1)
	dst := w.counts[o.base-w.base:]
	for i, c := range o.counts {
		dst[i] += c
	}
}

// bucketOf maps a positive magnitude to its bucket index.
func bucketOf(v float64) int {
	if math.IsInf(v, 0) {
		return sketchBuckets - 1
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if exp < sketchMinExp {
		return 0
	}
	if exp > sketchMaxExp {
		return sketchBuckets - 1
	}
	sub := int((frac - 0.5) * 2 * sketchSub)
	if sub >= sketchSub {
		sub = sketchSub - 1
	}
	return (exp-sketchMinExp)*sketchSub + sub
}

// bucketMid returns the representative (midpoint) value of a bucket.
func bucketMid(idx int) float64 {
	exp := idx/sketchSub + sketchMinExp
	sub := idx % sketchSub
	frac := 0.5 + (float64(sub)+0.5)/(2*sketchSub)
	return math.Ldexp(frac, exp)
}

// Observe adds one value. NaN observations are ignored; infinities clamp
// into the extreme buckets.
func (s *Sketch) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.n++
	switch {
	case v > 0:
		s.pos.add(bucketOf(v), 1)
	case v < 0:
		s.neg.add(bucketOf(-v), 1)
	default:
		s.zero++
	}
}

// Merge folds o into s. Bucket counts add, so merge is exactly commutative
// and associative: merge(a,b) and merge(b,a) hold the same counts.
func (s *Sketch) Merge(o *Sketch) {
	s.pos.merge(&o.pos)
	s.neg.merge(&o.neg)
	s.zero += o.zero
	s.n += o.n
}

// Count reports how many observations the sketch has absorbed.
func (s *Sketch) Count() int64 { return s.n }

// RelErrBound is the sketch's relative quantile error bound: every
// reported quantile is within this fraction of some observed value at most
// one rank away from the requested one.
func (s *Sketch) RelErrBound() float64 { return 1.0 / (2 * sketchSub) }

// ApproxSum estimates the sum of all observations from bucket midpoints —
// within RelErrBound of the true sum when all observations are positive.
func (s *Sketch) ApproxSum() float64 {
	var total float64
	for i := len(s.neg.counts) - 1; i >= 0; i-- {
		if c := s.neg.counts[i]; c > 0 {
			total -= float64(c) * bucketMid(s.neg.base+i)
		}
	}
	for i, c := range s.pos.counts {
		if c > 0 {
			total += float64(c) * bucketMid(s.pos.base+i)
		}
	}
	return total
}

// sketchJSON is the sparse wire form of a Sketch for the fleet shard
// journal: only occupied buckets, keyed by decimal bucket index. Counts
// are integers, so the round trip is exact and a journaled shard resumes
// to byte-identical fingerprints.
type sketchJSON struct {
	Pos  map[string]int64 `json:"pos,omitempty"`
	Neg  map[string]int64 `json:"neg,omitempty"`
	Zero int64            `json:"zero,omitempty"`
	N    int64            `json:"n"`
}

func sparse(w *window) map[string]int64 {
	var m map[string]int64
	for i, c := range w.counts {
		if c != 0 {
			if m == nil {
				m = make(map[string]int64)
			}
			m[strconv.Itoa(w.base+i)] = c
		}
	}
	return m
}

// unsparse fills w from its sparse form and adds the counts to *total. A
// key must be the canonical decimal form of an index in range, so no two
// keys name one bucket. Keys are read in sorted order, so a malformed
// journal line reports the same error on every run.
func unsparse(m map[string]int64, w *window, total *int64) error {
	for _, k := range sortedKeys(m) {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= sketchBuckets || strconv.Itoa(i) != k {
			return fmt.Errorf("fleet: sketch bucket %q is not an index in [0,%d)", k, sketchBuckets)
		}
		if err := addCount(total, m[k]); err != nil {
			return err
		}
		if m[k] != 0 {
			w.add(i, m[k])
		}
	}
	return nil
}

// addCount adds one bucket count to *total, rejecting a negative count and
// a total past the int64 range.
func addCount(total *int64, c int64) error {
	if c < 0 {
		return fmt.Errorf("fleet: negative sketch count %d", c)
	}
	if c > math.MaxInt64-*total {
		return errors.New("fleet: sketch counts overflow int64")
	}
	*total += c
	return nil
}

// MarshalJSON encodes the sketch sparsely (see sketchJSON).
func (s *Sketch) MarshalJSON() ([]byte, error) {
	return json.Marshal(sketchJSON{Pos: sparse(&s.pos), Neg: sparse(&s.neg), Zero: s.zero, N: s.n})
}

// UnmarshalJSON decodes the sparse form, replacing the sketch's contents.
// It rejects a malformed bucket key, a negative count, and an n other than
// the bucket total, and leaves the sketch unchanged on error.
func (s *Sketch) UnmarshalJSON(b []byte) error {
	var j sketchJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	d := Sketch{zero: j.Zero, n: j.N}
	var total int64
	if err := addCount(&total, j.Zero); err != nil {
		return err
	}
	if err := unsparse(j.Pos, &d.pos, &total); err != nil {
		return err
	}
	if err := unsparse(j.Neg, &d.neg, &total); err != nil {
		return err
	}
	if total != j.N {
		return fmt.Errorf("fleet: sketch n=%d but its buckets hold %d", j.N, total)
	}
	*s = d
	return nil
}

// Quantile returns the q-th quantile (q in [0,1]) by nearest rank: the
// representative value of the bucket holding rank round(q*(n-1)). An empty
// sketch reports 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Clamp the rank to [0, n-1] while it is still a float: near n = 2^63
	// it rounds up to 2^63, and converting that to int64 is
	// implementation-defined.
	rank := s.n - 1
	if r := q*float64(s.n-1) + 0.5; r < float64(rank) {
		rank = int64(r)
	}
	// Ascending value order: negatives from largest magnitude down, then
	// zero, then positives from smallest magnitude up.
	var cum int64
	for i := len(s.neg.counts) - 1; i >= 0; i-- {
		cum += s.neg.counts[i]
		if cum > rank {
			return -bucketMid(s.neg.base + i)
		}
	}
	cum += s.zero
	if cum > rank {
		return 0
	}
	for i, c := range s.pos.counts {
		cum += c
		if cum > rank {
			return bucketMid(s.pos.base + i)
		}
	}
	// Unreachable: the cumulative count reaches n, and rank < n.
	return 0
}
