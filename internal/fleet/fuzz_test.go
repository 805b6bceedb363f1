package fleet

import (
	"math"
	"testing"
)

// FuzzSketchJSON checks the sketch decoder behind the fleet shard journal:
// any input it accepts decodes the same way twice, and survives a
// MarshalJSON round trip with the same count and quantiles. The seeds are
// the sketches of a small fleet run and the malformed lines the decoder
// must reject.
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
	for _, line := range malformedSketches {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s, again Sketch
		if err := s.UnmarshalJSON(b); err != nil {
			return
		}
		if err := again.UnmarshalJSON(b); err != nil || again != s {
			t.Fatalf("second decode of an accepted sketch differs (err %v):\n%s", err, b)
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
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			if a, b := s.Quantile(q), rt.Quantile(q); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("round trip changed quantile %v from %v to %v:\n%s", q, a, b, enc)
			}
		}
	})
}
