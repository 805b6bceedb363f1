package fleet

import (
	"fmt"
	"math"
	"testing"
)

// FuzzSketchJSON checks the sketch decoder behind the fleet shard journal:
// any input it accepts decodes the same way twice, and survives a
// MarshalJSON round trip with the same count and quantiles. Its quantiles
// never decrease as q rises, and lie between the values of its lowest and
// highest occupied buckets. The seeds are the sketches of a small fleet
// run, a sketch at the int64 count limit, and the malformed lines the
// decoder must reject.
func FuzzSketchJSON(f *testing.F) {
	r, err := Run(RunOptions{Population: DefaultPopulation(), Seed: 3, Devices: 8, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	sketches := []*Sketch{r.Agg.Residual, r.Agg.SessionMin, r.Agg.StartMin}
	for _, k := range sortedKeys(r.Agg.ByClass) {
		sketches = append(sketches, r.Agg.ByClass[k].Residual)
	}
	for _, s := range sketches {
		b, err := s.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(fmt.Sprintf(`{"neg":{"7":1},"zero":%d,"n":%d}`, int64(math.MaxInt64-1), int64(math.MaxInt64))))
	for _, line := range malformedSketches {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s, again Sketch
		if err := s.UnmarshalJSON(b); err != nil {
			return
		}
		if err := again.UnmarshalJSON(b); err != nil {
			t.Fatalf("second decode of an accepted sketch fails: %v\n%s", err, b)
		}
		if d := sketchDiff(&again, &s); d != "" {
			t.Fatalf("second decode of an accepted sketch differs: %s\n%s", d, b)
		}
		enc, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted sketch does not encode: %v", err)
		}
		var rt Sketch
		if err := rt.UnmarshalJSON(enc); err != nil {
			t.Fatalf("encoded form of an accepted sketch is rejected: %v\n%s", err, enc)
		}
		if rt.Count() != s.Count() {
			t.Fatalf("round trip changed the count %d to %d:\n%s", s.Count(), rt.Count(), enc)
		}
		lo, hi := occupiedRange(&s)
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			a, b := s.Quantile(q), rt.Quantile(q)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("round trip changed quantile %v from %v to %v:\n%s", q, a, b, enc)
			}
			if s.Count() > 0 && (a < prev || a < lo || a > hi) {
				t.Fatalf("quantile %v = %v after %v, outside the occupied range [%v, %v]:\n%s", q, a, prev, lo, hi, enc)
			}
			prev = a
		}
	})
}

// occupiedRange returns the values of a sketch's lowest and highest
// occupied buckets (both 0 when it is empty).
func occupiedRange(s *Sketch) (lo, hi float64) {
	var vals []float64
	for i := sketchBuckets - 1; i >= 0; i-- {
		if s.neg.count(i) > 0 {
			vals = append(vals, -bucketMid(i))
		}
	}
	if s.zero > 0 {
		vals = append(vals, 0)
	}
	for i := 0; i < sketchBuckets; i++ {
		if s.pos.count(i) > 0 {
			vals = append(vals, bucketMid(i))
		}
	}
	if len(vals) == 0 {
		return 0, 0
	}
	return vals[0], vals[len(vals)-1]
}
