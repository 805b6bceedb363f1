package experiment

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/sim"
)

// useParallelism configures the worker pool for one test and restores the
// serial default afterwards.
func useParallelism(t *testing.T, n int) {
	t.Helper()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(1) })
}

// useCacheDir points the cell cache at a per-test directory and disables it
// afterwards.
func useCacheDir(t *testing.T, dir string) {
	t.Helper()
	SetCacheDir(dir)
	t.Cleanup(func() { SetCacheDir("") })
}

// gridCSV renders everything output depends on: the energy table plus every
// per-object breakdown table.
func gridCSV(g *Grid) string {
	var b strings.Builder
	b.WriteString(g.Table().CSV())
	for oi := range g.Objects {
		b.WriteString(g.BreakdownTable(oi).CSV())
	}
	return b.String()
}

// TestRunGridParallelByteIdentical is the scheduler's core contract: for a
// fixed seed a many-worker run renders byte-identical tables — energy,
// duration, and per-principal breakdowns — to the serial path.
func TestRunGridParallelByteIdentical(t *testing.T) {
	SetParallelism(1)
	serial := figureVideoFidelityOnly(3)
	useParallelism(t, 8)
	parallel := figureVideoFidelityOnly(3)
	if a, b := gridCSV(serial), gridCSV(parallel); a != b {
		t.Fatalf("parallel grid diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	for oi := range serial.Objects {
		for bi := range serial.Bars {
			s, p := serial.Cells[oi][bi], parallel.Cells[oi][bi]
			if s.Energy != p.Energy || s.Duration != p.Duration {
				t.Fatalf("cell %d/%d summaries differ: %+v vs %+v", oi, bi, s, p)
			}
		}
	}
}

// TestRunCellBreakdownAggregation pins down the per-principal aggregation:
// the breakdown is identical whichever pool ran the trials, and its total
// accounts for (approximately) the mean measured energy.
func TestRunCellBreakdownAggregation(t *testing.T) {
	trial := func(rig *env.Rig, p *sim.Proc) { p.Sleep(2 * time.Second) }
	SetParallelism(1)
	serial := runCell("test-cell", "obj", 3, 77, Bar{Label: "idle"}, trial)
	useParallelism(t, 4)
	parallel := runCell("test-cell", "obj", 3, 77, Bar{Label: "idle"}, trial)

	if len(serial.Breakdown) == 0 {
		t.Fatal("breakdown is empty")
	}
	if len(serial.Breakdown) != len(parallel.Breakdown) {
		t.Fatalf("breakdown principals differ: %v vs %v", serial.Breakdown, parallel.Breakdown)
	}
	for k, v := range serial.Breakdown {
		pv, ok := parallel.Breakdown[k]
		if !ok || pv != v {
			t.Fatalf("principal %q: serial %v, parallel %v", k, v, pv)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("principal %q aggregated to %v", k, v)
		}
	}
	sum := 0.0
	for _, v := range serial.Breakdown {
		sum += v
	}
	if rel := math.Abs(sum-serial.Energy.Mean) / serial.Energy.Mean; rel > 0.02 {
		t.Fatalf("breakdown total %.3f J vs mean energy %.3f J (%.1f%% off)", sum, serial.Energy.Mean, rel*100)
	}
}

// TestCellCacheWarmRerun: a second identical run must resolve every cell
// from the cache and render byte-identical output; changing the trial count
// must miss.
func TestCellCacheWarmRerun(t *testing.T) {
	useCacheDir(t, t.TempDir())
	cold := figureVideoFidelityOnly(2)
	hits, misses := CacheStats()
	nCells := len(cold.Objects) * len(cold.Bars)
	if hits != 0 || misses != nCells {
		t.Fatalf("cold run: %d hits / %d misses, want 0 / %d", hits, misses, nCells)
	}
	warm := figureVideoFidelityOnly(2)
	hits, misses = CacheStats()
	if hits != nCells || misses != nCells {
		t.Fatalf("warm run: %d hits / %d misses, want %d / %d", hits, misses, nCells, nCells)
	}
	if a, b := gridCSV(cold), gridCSV(warm); a != b {
		t.Fatalf("cached rerun diverged:\n--- cold ---\n%s--- warm ---\n%s", a, b)
	}
	// A different trial count is a different key: no false hits.
	ResetCacheStats()
	figureVideoFidelityOnly(1)
	if hits, _ := CacheStats(); hits != 0 {
		t.Fatalf("trial-count change still hit the cache %d times", hits)
	}
}

// TestCellCacheRejectsTamperedEntries: an entry whose stored key fields no
// longer match (a stale harness version, a hand-edited file) degrades to a
// miss rather than supplying a wrong cell.
func TestCellCacheRejectsTamperedEntries(t *testing.T) {
	dir := t.TempDir()
	useCacheDir(t, dir)
	trial := func(rig *env.Rig, p *sim.Proc) { p.Sleep(time.Second) }
	runCell("tamper", "obj", 2, 5, Bar{Label: "b"}, trial)
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache files %v (err %v), want exactly 1", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), harnessVersion, "stale-version", 1)
	if tampered == string(data) {
		t.Fatal("fixture did not contain the harness version")
	}
	if err := os.WriteFile(files[0], []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	ResetCacheStats()
	runCell("tamper", "obj", 2, 5, Bar{Label: "b"}, trial)
	if hits, misses := CacheStats(); hits != 0 || misses == 0 {
		t.Fatalf("tampered entry produced %d hits / %d misses, want 0 hits", hits, misses)
	}
}

// TestSavingsRangeEmptyGrid: the zero-object grid must report a null range,
// not the inverted (1, -1) accumulator sentinel that NormalizedRange would
// turn into the nonsense (2, 0).
func TestSavingsRangeEmptyGrid(t *testing.T) {
	g := &Grid{Title: "empty", Bars: []string{"a", "b"}}
	if lo, hi := g.SavingsRange(1, 0); lo != 0 || hi != 0 {
		t.Fatalf("empty grid SavingsRange = (%v, %v), want (0, 0)", lo, hi)
	}
	if lo, hi := g.NormalizedRange(1, 0); lo != 1 || hi != 1 {
		t.Fatalf("empty grid NormalizedRange = (%v, %v), want (1, 1)", lo, hi)
	}
}

// TestFeasibleBandMatchesSerialRuns: the pooled band equals the two direct
// fixed-fidelity runs.
func TestFeasibleBandMatchesSerialRuns(t *testing.T) {
	useParallelism(t, 2)
	hi, lo := FeasibleBand(7, Figure20InitialEnergy)
	if want := RuntimeAtFixedFidelity(7, Figure20InitialEnergy, false); hi != want {
		t.Fatalf("highest-fidelity runtime %v, want %v", hi, want)
	}
	if want := RuntimeAtFixedFidelity(7, Figure20InitialEnergy, true); lo != want {
		t.Fatalf("lowest-fidelity runtime %v, want %v", lo, want)
	}
}

// TestSweepIndexesArmTrial: the sweep files run(a, t) under [a][t] at any
// pool width, with arm and trial counts that differ.
func TestSweepIndexesArmTrial(t *testing.T) {
	useParallelism(t, 8)
	rs := sweep(3, 5, func(a, tr int) GoalResult { return GoalResult{Residual: float64(10*a + tr)} })
	if len(rs) != 3 {
		t.Fatalf("%d arms, want 3", len(rs))
	}
	for a, arm := range rs {
		if len(arm) != 5 {
			t.Fatalf("arm %d has %d trials, want 5", a, len(arm))
		}
		for tr, r := range arm {
			if r.Residual != float64(10*a+tr) {
				t.Fatalf("[%d][%d] holds run %v", a, tr, r.Residual)
			}
		}
	}
}

// TestProgressLines: the progress stream reports computed cells with trial
// counts and cached cells as hits.
func TestProgressLines(t *testing.T) {
	useCacheDir(t, t.TempDir())
	var b strings.Builder
	SetProgress(&b)
	t.Cleanup(func() { SetProgress(nil) })
	trial := func(rig *env.Rig, p *sim.Proc) { p.Sleep(time.Second) }
	runCell("prog", "obj", 2, 9, Bar{Label: "b"}, trial)
	runCell("prog", "obj", 2, 9, Bar{Label: "b"}, trial)
	out := b.String()
	if !strings.Contains(out, "cell prog obj / b: 2 trials in") {
		t.Fatalf("missing computed-cell progress line:\n%s", out)
	}
	if !strings.Contains(out, "cell prog obj / b: cache hit") {
		t.Fatalf("missing cache-hit progress line:\n%s", out)
	}
}
