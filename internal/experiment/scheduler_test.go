package experiment

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/app/speech"
	"odyssey/internal/app/video"
	"odyssey/internal/sim"
)

// useParallelism configures the task budget for one test and restores the
// serial default afterwards.
func useParallelism(t *testing.T, n int) {
	t.Helper()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(1) })
}

// gridCSV renders everything output depends on: the energy table plus every
// per-object breakdown table, each titled.
func gridCSV(g *Grid) string {
	var b strings.Builder
	b.WriteString(titledCSV(g.Table()))
	for oi := range g.Objects {
		b.WriteString(titledCSV(g.BreakdownTable(oi)))
	}
	return b.String()
}

// TestRunGridParallelByteIdentical is the scheduler's core contract: for a
// fixed seed a many-worker run renders byte-identical tables — energy,
// duration, and per-principal breakdowns — to the serial path.
func TestRunGridParallelByteIdentical(t *testing.T) {
	grid := func() *Grid {
		return videoGrid("fidelity-video", "video fidelity-only",
			fidelityOnlyArms(video.TrackBase, video.TrackCombined), 3, 1610)
	}
	SetParallelism(1)
	serial := grid()
	useParallelism(t, 8)
	parallel := grid()
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
	run := []cellRun{{"obj", 77, Bar{Label: "idle"}, trial}}
	serial := runCells("test-cell", 3, run)[0]
	useParallelism(t, 4)
	parallel := runCells("test-cell", 3, run)[0]

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

// TestFeasibleBandMatchesSerialRuns: the pooled band equals the two pinned
// runs made directly, one after the other.
func TestFeasibleBandMatchesSerialRuns(t *testing.T) {
	useParallelism(t, 2)
	hi, lo := FeasibleBand(7, Figure20InitialEnergy)
	for _, c := range []struct {
		control Control
		got     time.Duration
	}{{PinHighest, hi}, {PinLowest, lo}} {
		want := RunGoal(GoalOptions{Seed: 7, InitialEnergy: Figure20InitialEnergy,
			Goal: 8 * time.Hour, Control: c.control}).EndTime
		if c.got != want {
			t.Fatalf("runtime pinned by control %d is %v, want %v", c.control, c.got, want)
		}
	}
}

// TestFeasibleBandRunsToDepletion: the pinned runs end at depletion
// whatever the supply, so on 400 kJ the lowest-fidelity end runs past 8 h
// and the band keeps the proportions it has on the Figure 20 supply.
func TestFeasibleBandRunsToDepletion(t *testing.T) {
	useParallelism(t, 2)
	hi20, lo20 := FeasibleBand(1, Figure20InitialEnergy)
	hi, lo := FeasibleBand(1, 400_000)
	if lo <= 8*time.Hour {
		t.Fatalf("lowest-fidelity runtime %v on 400 kJ, want past 8h", lo)
	}
	want := lo20.Seconds() / hi20.Seconds()
	if got := lo.Seconds() / hi.Seconds(); math.Abs(got/want-1) > 0.01 {
		t.Fatalf("band ratio %.4f on 400 kJ, want within 1%% of %.4f on %.0f J",
			got, want, Figure20InitialEnergy)
	}
}

// TestSweepIndexesArmTrial: the sweep files run(a, t) under [a][t] at any
// budget width, with arm and trial counts that differ.
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

// TestRunTasksSharesOneBudget: concurrent RunTasks callers draw from one
// process-wide budget, so together they never run more tasks at once than
// the configured width (three callers of two workers each used to reach
// six), and each call still runs every one of its indices exactly once. At
// width 1 concurrent callers run one task at a time.
func TestRunTasksSharesOneBudget(t *testing.T) {
	const callers, tasks = 3, 8
	for _, width := range []int{2, 1} {
		useParallelism(t, width)
		var running, peak atomic.Int32
		var runs [callers][tasks]atomic.Int32
		var wg sync.WaitGroup
		for c := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				RunTasks(tasks, func(i int) {
					n := running.Add(1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					time.Sleep(time.Millisecond) // long enough for other tasks to overlap it
					runs[c][i].Add(1)
					running.Add(-1)
				})
			}()
		}
		wg.Wait()
		if got := peak.Load(); got != int32(width) {
			t.Errorf("width %d: %d tasks ran at once across %d callers, want %d", width, got, callers, width)
		}
		for c := range runs {
			for i := range runs[c] {
				if n := runs[c][i].Load(); n != 1 {
					t.Errorf("width %d: caller %d ran task %d %d times, want once", width, c, i, n)
				}
			}
		}
	}
}

// TestNestedRunTasksPanics: a task that calls RunTasks would wait forever
// for tokens its caller holds, at width 1 always, and so would a simulated
// process's body, whose coroutine stack does not show the task's frame. The
// nested call panics instead, naming itself, and the outer call re-raises it
// as a *TaskPanic.
func TestNestedRunTasksPanics(t *testing.T) {
	for _, nested := range []struct {
		name string
		task func(int)
	}{
		{"task", func(int) { RunTasks(1, func(int) {}) }},
		{"process body", func(int) {
			k := sim.NewKernel(1)
			k.Spawn("nested", func(*sim.Proc) { RunTasks(1, func(int) {}) })
			k.Run(0)
		}},
	} {
		for _, width := range []int{1, 2} {
			useParallelism(t, width)
			got := make(chan any, 1)
			go func() {
				defer func() { got <- recover() }()
				RunTasks(2, nested.task)
			}()
			select {
			case r := <-got:
				tp, ok := r.(*TaskPanic)
				if !ok || !strings.Contains(fmt.Sprint(tp.Value), "nested RunTasks") {
					t.Fatalf("%s, width %d: nested RunTasks raised %v, want a *TaskPanic naming the nested call", nested.name, width, r)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, width %d: nested RunTasks hung", nested.name, width)
			}
		}
	}
}

// TestProgressLines: the progress stream reports every computed cell with
// its trial count — one line per cell of a grid, whatever the budget width —
// under the id of the figure that ran it.
func TestProgressLines(t *testing.T) {
	var b strings.Builder
	SetProgress(&b)
	t.Cleanup(func() { SetProgress(nil) })
	useParallelism(t, 4)
	trial := func(rig *env.Rig, p *sim.Proc) { p.Sleep(time.Second) }
	runCells("prog", 2, []cellRun{{"obj", 9, Bar{Label: "b"}, trial}})
	if out := b.String(); !strings.Contains(out, "cell prog obj / b: 2 trials in") {
		t.Fatalf("missing computed-cell progress line:\n%s", out)
	}

	b.Reset()
	objects := []string{"o1", "o2"}
	arms := []Arm[struct{}]{{Bar: Bar{Label: "x"}}, {Bar: Bar{Label: "y"}}, {Bar: Bar{Label: "z"}}}
	RunGrid("grid", "progress grid", objects, func(o string) string { return o }, arms, 3, 11,
		func(rig *env.Rig, p *sim.Proc, _ string, _ struct{}) { trial(rig, p) })
	out := b.String()
	if n := strings.Count(out, "\n"); n != len(objects)*len(arms) {
		t.Fatalf("%d progress lines for a %dx%d grid, want one per cell:\n%s", n, len(objects), len(arms), out)
	}
	for _, o := range objects {
		for _, arm := range arms {
			if line := "cell grid " + o + " / " + arm.Label + ": 3 trials in"; strings.Count(out, line) != 1 {
				t.Fatalf("want exactly one %q line:\n%s", line, out)
			}
		}
	}

	// Figure 16's video and speech grids are Figures 6 and 8: on a pass that
	// already holds those, Figure 16 runs no video or speech cell. The cells
	// it does run report under its own id.
	p := new(Pass)
	p.Figure6(1)
	p.Figure8(1)
	b.Reset()
	p.Figure16(1)
	out = b.String()
	if !strings.Contains(out, "cell fig16 ") {
		t.Fatalf("no cell fig16 line from Figure16:\n%s", out)
	}
	var reused []string
	for _, c := range video.StandardClips() {
		reused = append(reused, c.Name)
	}
	for _, u := range speech.StandardUtterances() {
		reused = append(reused, u.Name)
	}
	for _, id := range []string{"fig6", "fig8", "fig16"} {
		for _, object := range reused {
			if line := "cell " + id + " " + object + " / "; strings.Contains(out, line) {
				t.Fatalf("Figure16 on a pass holding Figures 6 and 8 ran a %q cell:\n%s", line, out)
			}
		}
	}
}
