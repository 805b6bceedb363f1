package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"odyssey/internal/hw"
	"odyssey/internal/power"
)

// updateGoldens rewrites the golden figure files from the current code:
//
//	go test ./internal/experiment -run TestFigureGoldens -update
//
// Do it only for a change meant to alter figure output, and say why in
// CHANGES.md.
var updateGoldens = flag.Bool("update", false, "rewrite testdata/*.csv from the current code")

// goldenTrials is the trial count of the golden figures: two, so a sweep
// that swapped its arm and trial indices would change some row.
const goldenTrials = 2

// goldenFigure is one checked-in rendering of a figure.
type goldenFigure struct {
	name string // file stem under testdata/
	body string
}

// titledCSV renders a table as odyssey-sim -csv prints it: "# title" then
// the CSV.
func titledCSV(t *Table) string { return "# " + t.Title + "\n" + t.CSV() }

// figureGoldens renders every figure at goldenTrials: each table as
// odyssey-sim -csv prints it, each grid with every per-object breakdown,
// Figure 2's profile as text, and Figure 19's traces as hex floats. Goal
// runs whose tables round them are also pinned exactly: both policy arms,
// the equal-priority ablation arm, the feasible band at seeds 1 and 7, and
// the plane runs of planeRuns. The ledgers of the plane runs and two more
// are pinned too, and t fails on any of them that does not conserve energy
// or pass the budget audit.
func figureGoldens(t *testing.T) []goldenFigure {
	return []goldenFigure{
		{"fig2", "# Figure 2: PowerScope energy profile of 30 s of video playback\n" + Figure2(1).String()},
		{"fig4", titledCSV(Figure4())},
		{"fig6", gridCSV(Figure6(goldenTrials))},
		{"fig8", gridCSV(Figure8(goldenTrials))},
		{"fig10", gridCSV(Figure10(goldenTrials))},
		{"fig11", titledCSV(Figure11(goldenTrials).Table())},
		{"fig13", gridCSV(Figure13(goldenTrials))},
		{"fig14", titledCSV(Figure14(goldenTrials).Table())},
		{"fig15", titledCSV(ConcurrencyTable(Figure15(goldenTrials)))},
		{"fig16", titledCSV(new(Pass).Figure16(goldenTrials).Table())},
		{"fig18", titledCSV(ZonedTable(Figure18(goldenTrials)))},
		{"fig19", traceHex(Figure19())},
		{"fig20", titledCSV(Figure20(goldenTrials).Table())},
		{"fig21", titledCSV(Figure21(goldenTrials).Table())},
		{"fig22", titledCSV(BurstyTable(Figure22(goldenTrials)))},
		{"ablations", titledCSV(Ablations(goldenTrials).Table())},
		{"measurement", titledCSV(MeasurementPaths(goldenTrials).Table())},
		{"dvs", titledCSV(DVSTable(DVSPaths(goldenTrials)))},
		{"quality", titledCSV(QualityTable(QualityEnergy(goldenTrials)))},
		{"policy", titledCSV(DecentralizedComparison(goldenTrials).Table())},
		{"resilience", titledCSV(new(Pass).FigureResilience(goldenTrials).Table())},
		{"supervision", titledCSV(new(Pass).FigureSupervision(goldenTrials).Table())},
		{"offload", titledCSV(FigureOffload(goldenTrials).Table())},
		{"policy-runs", resultHex(policyRuns())},
		{"ablation-equal-priority", resultHex(equalPriorityRuns())},
		{"band", bandNs(1, 7)},
		{"plane-runs", planeHex(planeRuns())},
		{"ledgers", ledgerHex(t, ledgerRuns())},
	}
}

// planeRun is one pinned goal run, named by its ladder rung (with the seed
// its figure gives it) or by its configuration.
type planeRun struct {
	name string
	run  func() GoalResult
}

// planeRuns runs one or two rungs of each robustness ladder and Figure 22's
// first bursty run with their figures' seeds: every retry backoff,
// supervisor restart, hedge, breaker and bursty slot shows in some value.
func planeRuns() []planeRun {
	return []planeRun{
		{"resilience mid", func() GoalResult { return RunResilienceTrial("mid", 2562) }},
		{"resilience severe", func() GoalResult { return RunResilienceTrial("severe", 2593) }},
		{"supervision mid", func() GoalResult { return RunSupervisionTrial("mid", 2662) }},
		{"supervision severe", func() GoalResult { return RunSupervisionTrial("severe", 2693) }},
		{"offload auto:crash", func() GoalResult { return RunOffloadTrial("auto", "crash", 2981) }},
		{"offload remote:flap", func() GoalResult { return RunOffloadTrial("remote", "flap", 2917) }},
		{"fig22 bursty", func() GoalResult { return runBursty(2200) }},
	}
}

// planeHex renders the plane runs exactly, one line per run: the residual
// and the retry, supervise and offload energies as hex floats, the end time
// in nanoseconds, and the plane counters.
func planeHex(runs []planeRun) string {
	results := sweep(len(runs), 1, func(a, _ int) GoalResult { return runs[a].run() })
	var b strings.Builder
	for i, pr := range runs {
		r := results[i][0]
		fmt.Fprintf(&b, "%s: residual=%x end=%d met=%v restarts=%d missed-acks=%d retries=%d"+
			" hedges=%d failovers=%d fallbacks=%d trips=%d retry=%x supervise=%x offload=%x\n",
			pr.name, r.Residual, int64(r.EndTime), r.Met, r.Restarts, r.MissedAcks, r.RetryAttempts,
			r.OffloadHedges, r.OffloadFailovers, r.OffloadFallbacks, r.BreakerTrips,
			r.RetryEnergy, r.SuperviseEnergy, r.OffloadEnergy)
	}
	return b.String()
}

// ledgerRuns are the plane runs, a SmartBattery run with Peukert losses on
// a scaled profile, and a decentralized-threshold run.
func ledgerRuns() []planeRun {
	profile := hw.ThinkPad560X().Scaled(1.1, 0.9)
	return append(planeRuns(),
		planeRun{"smartbattery peukert 1.08", func() GoalResult {
			return RunGoal(GoalOptions{Seed: 2726, InitialEnergy: Figure20InitialEnergy, Goal: 22 * time.Minute,
				SmartBattery: true, Peukert: 1.08, Profile: &profile})
		}},
		planeRun{"thresholds", func() GoalResult {
			return RunGoal(GoalOptions{Seed: 3000, InitialEnergy: Figure20InitialEnergy, Goal: 26 * time.Minute,
				Control: Thresholds})
		}},
	)
}

// ledgerHex renders each run's ledger exactly: a header line with the
// total as a hex float, the virtual time it covers in nanoseconds and the
// budget audit's verdict, then every component and principal entry as a
// hex float in name order. t fails on a ledger that does not conserve
// energy or fails the budget audit.
func ledgerHex(t *testing.T, runs []planeRun) string {
	results := sweep(len(runs), 1, func(a, _ int) GoalResult { return runs[a].run() })
	var b strings.Builder
	for i, lr := range runs {
		led := results[i][0].Ledger
		if err := power.ConservationCheck(led.Total, led.ByComponent, led.ByPrincipal, led.Elapsed); err != nil {
			t.Errorf("%s: %v", lr.name, err)
		}
		if led.BudgetErr != nil {
			t.Errorf("%s: budget audit: %v", lr.name, led.BudgetErr)
		}
		fmt.Fprintf(&b, "%s: total=%x elapsed=%d budget=%v\n", lr.name, led.Total, int64(led.Elapsed), led.BudgetErr)
		for _, k := range sortedNames(led.ByComponent) {
			fmt.Fprintf(&b, "  component %s=%x\n", k, led.ByComponent[k])
		}
		for _, k := range sortedNames(led.ByPrincipal) {
			fmt.Fprintf(&b, "  principal %s=%x\n", k, led.ByPrincipal[k])
		}
	}
	return b.String()
}

// sortedNames returns a ledger's entry names in order.
func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// policyRuns runs both arms of the policy figure at both of its goals with
// the figure's seeds, goldenTrials each, in (goal, policy, trial) order.
func policyRuns() []GoalResult {
	goals := []time.Duration{20 * time.Minute, 26 * time.Minute}
	return slices.Concat(sweep(2*len(goals), goldenTrials, func(a, t int) GoalResult {
		return RunGoal(GoalOptions{Seed: int64(3000 + t), InitialEnergy: Figure20InitialEnergy,
			Goal: goals[a/2], Control: [2]Control{Directed, Thresholds}[a%2]})
	})...)
}

// equalPriorityRuns runs the ablations' equal-priority arm (the fifth) with
// its seeds, goldenTrials of them.
func equalPriorityRuns() []GoalResult {
	return sweep(1, goldenTrials, func(_, t int) GoalResult {
		return RunGoal(GoalOptions{
			Seed:          int64(2600 + 4*31 + t),
			InitialEnergy: Figure20InitialEnergy,
			Goal:          26 * time.Minute,
			EqualPriority: true,
		})
	})[0]
}

// bandNs renders the feasible runtime band at each seed in nanoseconds.
func bandNs(seeds ...int64) string {
	var b strings.Builder
	for _, seed := range seeds {
		hi, lo := FeasibleBand(seed, Figure20InitialEnergy)
		fmt.Fprintf(&b, "seed %d highest=%d lowest=%d\n", seed, int64(hi), int64(lo))
	}
	return b.String()
}

// resultHex renders goal runs' outcomes exactly, one line per run: the goal,
// whether it was met, the residual as a hex float, the end time in
// nanoseconds, then each application's adaptation count and mean fidelity
// (a hex float) in name order.
func resultHex(results []GoalResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "goal %v met=%v residual=%x end=%d", r.Goal, r.Met, r.Residual, int64(r.EndTime))
		apps := make([]string, 0, len(r.Adaptations))
		for app := range r.Adaptations {
			apps = append(apps, app)
		}
		sort.Strings(apps)
		for _, app := range apps {
			fmt.Fprintf(&b, " %s=%d/%x", app, r.Adaptations[app], r.MeanFidelity[app])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// traceStride is how many evaluations apart the golden trace lines are: 5 s
// of virtual time. Any change to a run shifts its supply estimate from then
// on, so the sampled trace pins the run as tightly as the full one at a
// tenth of the size.
const traceStride = 10

// traceHex renders goal runs' adaptation traces exactly: one header line per
// run, then every traceStride-th evaluation and the last — time in
// nanoseconds, supply and demand as hex floats, and each application's
// fidelity level in name order.
func traceHex(results []GoalResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "# goal %v met=%v residual=%x end=%v points=%d\n",
			r.Goal, r.Met, r.Residual, r.EndTime, len(r.Trace))
		for i, tp := range r.Trace {
			if i%traceStride != 0 && i != len(r.Trace)-1 {
				continue
			}
			apps := make([]string, 0, len(tp.Levels))
			for app := range tp.Levels {
				apps = append(apps, app)
			}
			sort.Strings(apps)
			fmt.Fprintf(&b, "%d %x %x", int64(tp.Time), tp.Supply, tp.Demand)
			for _, app := range apps {
				fmt.Fprintf(&b, " %s=%d", app, tp.Levels[app])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestFigureGoldens pins every figure to its checked-in rendering, with the
// task budget at one and at eight: grid cells and goal sweeps must not
// depend on budget width or completion order. Under the race detector only
// the width-8 pass runs, where the tasks overlap.
func TestFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure twice")
	}
	widths := []int{1, 8}
	if raceEnabled {
		widths = []int{8}
	}
	for _, w := range widths {
		useParallelism(t, w)
		for _, g := range figureGoldens(t) {
			path := filepath.Join("testdata", g.name+".csv")
			if *updateGoldens {
				if err := os.WriteFile(path, []byte(g.body), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if line, gl, wl, ok := firstDiff(g.body, string(want)); !ok {
				t.Errorf("width %d: %s differs from %s at line %d:\n got  %q\n want %q",
					w, g.name, path, line, gl, wl)
			}
		}
	}
}

// firstDiff compares two renderings line by line and reports the first line
// that differs (1-based), or ok when they are identical.
func firstDiff(got, want string) (line int, g, w string, ok bool) {
	if got == want {
		return 0, "", "", true
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			at := func(ls []string) string {
				if i < len(ls) {
					return ls[i]
				}
				return "<end of file>"
			}
			return i + 1, at(gl), at(wl), false
		}
	}
}
