package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is one -all output file.
type runSet struct {
	Results map[string]result `json:"results"`
}

// compareSets compares a parent's runs (args[0], comma-separated -out
// files) with a change's runs (args[1]) under the bounds in specPath. It
// prints one row per (workload, metric) and returns 1 on any regression
// or incorrect run.
func compareSets(args []string, specPath string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json[,a2.json...] b.json[,b2.json...]")
		return 2
	}
	var spec benchmarkSpec
	b, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: reading bounds:", err)
		return 2
	}
	sets := [2][]runSet{}
	for side, list := range args {
		for _, path := range strings.Split(list, ",") {
			var rs runSet
			b, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(b, &rs)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
				return 2
			}
			sets[side] = append(sets[side], rs)
		}
	}
	bad := 0
	fmt.Printf("%-13s %-11s %12s %12s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, rs := range sets[1] {
			if r, ok := rs.Results[w.name]; ok && (!r.Correct || r.Failed > 0) {
				fmt.Printf("%-13s %-11s %12s %12s %8s %6s  %s\n", w.name, "outputs", "", "", "", "", "incorrect")
				bad++
				break
			}
		}
		for _, e := range spec.EndToEnd {
			av, bv := collect(sets[0], w.name, e.Name), collect(sets[1], w.name, e.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			verdict, change := judge(av, bv, e.Better == "higher", e.Bound)
			if verdict == "worse" {
				bad++
			}
			fmt.Printf("%-13s %-11s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n",
				w.name, e.Name, median(av), median(bv), 100*change, 100*e.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d regression(s) or incorrect workload(s)\n", bad)
		return 1
	}
	return 0
}

func collect(sets []runSet, workload, metric string) []float64 {
	var out []float64
	for _, rs := range sets {
		if v, ok := rs.Results[workload].Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge compares a change's values b with the parent's a. It returns the
// verdict and the relative change of the medians. With ten or more pairs a
// gain needs the change to win nine tenths of the pairs and the medians to
// differ by more than the parent's quartile spread. A metric whose parent
// spread is wider than the bound is unresolved unless every change run
// beats every parent run. Fewer than ten pairs never show a gain.
func judge(a, b []float64, higher bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma
	worsening := change
	if higher {
		worsening = -change
	}
	better := func(x, y float64) bool { return (higher && x > y) || (!higher && x < y) }
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := 0.0
	if len(a) >= 2 {
		q := quartiles(a)
		spread = q[2] - q[0]
	}
	if n := min(len(a), len(b)); n >= 10 {
		wins := 0
		for k := 0; k < n; k++ {
			if better(b[k], a[k]) {
				wins++
			}
		}
		if 10*wins >= 9*n && worsening < 0 && -worsening*ma > spread {
			return "better", change
		}
	}
	switch {
	case spread/ma > bound && !allBetter:
		return "unresolved", change
	case worsening > bound:
		return "worse", change
	case -worsening > bound:
		return "unresolved", change
	}
	return "within-bound", change
}

// quartiles returns the three cut points of values as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method).
func quartiles(values []float64) [3]float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}
