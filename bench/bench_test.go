package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"odyssey/internal/experiment"
)

// simPath is the odyssey-sim binary TestMain builds for the figures
// workload.
var simPath string

// TestMain doubles as the benchmark's child process: measure re-executes
// the running binary with -child, which here is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:]))
	}
	dir, err := os.MkdirTemp("", "bench-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	simPath = filepath.Join(dir, "odyssey-sim")
	if out, err := exec.Command("go", "build", "-o", simPath, "odyssey/cmd/odyssey-sim").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building odyssey-sim: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	_ = os.RemoveAll(dir) // best effort: a temporary directory
	os.Exit(code)
}

func smokeConfig(workload string) *config {
	return &config{workload: workload, seed: goldenSeed, sim: simPath, smoke: true}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the metric and
// workload tables in this package in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, set := range []struct {
		json []struct{ Name, Unit, Better string }
		go_  []metric
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.json) != len(set.go_) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the package %d", len(set.json), len(set.go_))
		}
		for i, m := range set.json {
			g := set.go_[i]
			if m.Name != g.name || m.Unit != g.unit || m.Better != g.better {
				t.Errorf("metric %d: BENCHMARK.json %s/%s/%s, package %s/%s/%s", i, m.Name, m.Unit, m.Better, g.name, g.unit, g.better)
			}
		}
	}
}

// checkMetrics asserts res reports exactly the metrics of want, each with
// its unit.
func checkMetrics(t *testing.T, label string, res result, want []metric, nonzero bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", label, len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", label, m.name)
		case v.Unit != m.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, m.name, v.Unit, m.unit)
		case nonzero && !(v.Value > 0):
			t.Errorf("%s: metric %s = %v, want > 0", label, m.name, v.Value)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		res, err := measure(smokeConfig(w.name), w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != w.smokeOps {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want true %d 0", w.name, res.Correct, res.Attempted, res.Failed, w.smokeOps)
		}
		checkMetrics(t, w.name, res, endToEnd, true)
	}
}

func TestSmokeTraced(t *testing.T) {
	c := smokeConfig("chaos-soak")
	c.traceOut = filepath.Join(t.TempDir(), "trace.json")
	res, err := traced(c, workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run reported incorrect output")
	}
	checkMetrics(t, "traced", res, perLayer, false)

	b, err := os.ReadFile(c.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name    string
			Ph      string
			Ts, Dur float64
			Args    struct {
				ID, Parent int
				SelfUs     float64 `json:"self_us"`
			}
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	byID := map[int]int{}
	for i, e := range tf.TraceEvents {
		byID[e.Args.ID] = i
	}
	const slack = 1e-3 // µs: rounding of the exported float timestamps
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args.SelfUs < -slack {
			t.Fatalf("malformed event %+v", e)
		}
		if e.Args.Parent == 0 {
			continue
		}
		p, ok := byID[e.Args.Parent]
		if !ok {
			t.Fatalf("event %s names missing parent %d", e.Name, e.Args.Parent)
		}
		pe := tf.TraceEvents[p]
		if e.Ts < pe.Ts-slack || e.Ts+e.Dur > pe.Ts+pe.Dur+slack {
			t.Fatalf("event %s [%v+%v] escapes parent %s [%v+%v]", e.Name, e.Ts, e.Dur, pe.Name, pe.Ts, pe.Dur)
		}
	}
}

// TestDigestsIndependentOfClients runs every workload's smoke ops with one
// client and with two (and, for fleet, at pool width 1 and 2): the golden
// digest must not depend on scheduling.
func TestDigestsIndependentOfClients(t *testing.T) {
	defer experiment.SetParallelism(1)
	for _, w := range workloads {
		c := smokeConfig(w.name)
		var digests []string
		for _, width := range []int{1, 2} {
			experiment.SetParallelism(width)
			lr := runLoop(w.newOp(c), width, w.smokeOps, 0, w.tailQ)
			if lr.Failed != 0 || lr.Ops != w.smokeOps {
				t.Fatalf("%s at width %d: %d of %d ops failed: %s", w.name, width, lr.Failed, lr.Ops, lr.Detail)
			}
			digests = append(digests, lr.Digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at width 1, %s at width 2", w.name, digests[0], digests[1])
		}
	}
}

func TestSelfTimesAndNesting(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "op", start: 0, end: 10 * ms},
		{id: 2, parent: 1, name: "a", start: 1 * ms, end: 4 * ms},
		{id: 3, parent: 1, name: "b", start: 3 * ms, end: 6 * ms, worker: 1},
		{id: 4, parent: 2, name: "c", start: 2 * ms, end: 3 * ms},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{5 * ms, 2 * ms, 3 * ms, 1 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %v, want %v", i+1, got, want[i])
		}
	}
	spans[3].end = 5 * ms
	if checkSpans(spans) == nil {
		t.Error("a child outliving its parent passed checkSpans")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v * (1 + 0.001*float64(i%3))
		}
		return out
	}
	for _, tc := range []struct {
		a, b   []float64
		higher bool
		want   string
	}{
		{steady(100, 10), steady(100, 10), true, "within-bound"},
		{steady(100, 10), steady(95, 10), true, "within-bound"},
		{steady(100, 10), steady(80, 10), true, "worse"},
		{steady(100, 10), steady(130, 10), true, "better"},
		{steady(100, 3), steady(130, 3), true, "unresolved"},
		{[]float64{50, 150, 60, 140, 100}, []float64{90, 90, 90, 90, 90}, false, "unresolved"},
		{steady(10, 1), steady(12, 1), false, "worse"},
	} {
		if got, _ := judge(tc.a, tc.b, tc.higher, 0.1); got != tc.want {
			t.Errorf("judge(%v, %v, higher=%v) = %s, want %s", tc.a, tc.b, tc.higher, got, tc.want)
		}
	}
}
