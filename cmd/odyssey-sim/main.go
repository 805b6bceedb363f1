// Command odyssey-sim regenerates the tables and figures of "Energy-aware
// adaptation for mobile applications" (SOSP '99) from the simulated
// testbed.
//
// Usage:
//
//	odyssey-sim -figure fig6 [-trials 5] [-parallel N] [-progress]
//	odyssey-sim -figure all
//	odyssey-sim -figure all -cpuprofile cpu.out -memprofile mem.out
//
// The requested figures compute at once, each on its own goroutine, and
// print in the order requested. Every simulation run of every figure — grid
// cells, the fixed-fidelity runs of Figures 2 and 15, dvs and quality, and
// goal sweeps — draws from one task budget, so -parallel (default: all CPUs)
// bounds the runs in flight across the whole invocation, without changing a
// byte of output. The figures and the "check" scorecard share one result
// set, so the scorecard scores the runs the figures print. -progress
// reports per-cell timing, and each figure's compute time as it finishes,
// on stderr. -trials must be at least 1.
//
// Figure ids (as -list prints them): fig2 fig4 fig6 fig8 fig10 fig11 fig13
// fig14 fig15 fig16 fig18 fig19 fig20 fig21 fig22 ablations measurement dvs
// quality policy resilience supervision offload check ("check" runs the
// validation scorecard and exits nonzero on failures).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"odyssey/internal/experiment"
	"odyssey/internal/profiling"
)

// figures lists every known figure id with a one-line description (-list).
var figures = []struct{ id, desc string }{
	{"fig2", "PowerScope energy profile of 30 s of video playback"},
	{"fig4", "total energy by hardware component (idle states)"},
	{"fig6", "video playback energy vs fidelity (4 clips x 5 bars)"},
	{"fig8", "speech recognition energy vs fidelity and execution mode"},
	{"fig10", "map viewing energy vs fidelity (distillation and cropping)"},
	{"fig11", "effect of user think time for map viewing (San Jose)"},
	{"fig13", "Web browsing energy vs distillation fidelity (4 images)"},
	{"fig14", "effect of user think time for Web browsing (Image 1)"},
	{"fig15", "effect of concurrent applications (composite +/- video)"},
	{"fig16", "summary: energy impact of fidelity reduction per app"},
	{"fig18", "zoned backlight projections (4- and 8-zone displays)"},
	{"fig19", "goal-directed adaptation traces (20- and 26-minute goals)"},
	{"fig20", "summary of goal-directed adaptation (goals 20-26 min)"},
	{"fig21", "sensitivity to smoothing half-life (26-minute goal)"},
	{"fig22", "longer-duration goals with bursty workloads (goal revision)"},
	{"ablations", "design-choice ablations of the goal-directed engine"},
	{"measurement", "multimeter vs SmartBattery measurement paths"},
	{"dvs", "dynamic voltage scaling composed with fidelity adaptation"},
	{"quality", "speech energy vs recognition quality"},
	{"policy", "centralized viceroy vs decentralized per-app adaptation"},
	{"resilience", "battery goals under escalating network/server fault plans"},
	{"supervision", "battery goals under escalating application misbehavior"},
	{"offload", "local/remote/hybrid placement ladder (policy x environment)"},
	{"check", "validation scorecard (exits nonzero on failures)"},
}

func main() {
	figure := flag.String("figure", "all", "figure id to regenerate (fig2..fig22, or 'all')")
	trials := flag.Int("trials", 5, "trials per measurement")
	breakdown := flag.Bool("breakdown", false, "also print per-software-component breakdowns")
	csvOut := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	list := flag.Bool("list", false, "list known figure ids with descriptions and exit")
	parallel := flag.Int("parallel", runtime.NumCPU(), "simulation runs in flight at once across all figures (1 = serial; output is identical either way)")
	progress := flag.Bool("progress", false, "print per-cell progress/timing lines to stderr")
	misbehaveArg := flag.String("misbehave", "", "with -figure supervision: run a single misbehavior rung (none, mild, mid, severe) instead of the full ladder")
	offloadArg := flag.String("offload-rung", "", "with -figure offload: run a single policy:environment rung (e.g. auto:crash) instead of the full ladder")
	prof = profiling.Register(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	emitCSV = *csvOut
	misbehave = *misbehaveArg
	offloadRung = *offloadArg
	experiment.SetParallelism(*parallel)
	if *progress {
		experiment.SetProgress(os.Stderr)
	}
	ids := make([]string, 0, len(figures))
	for _, f := range figures {
		ids = append(ids, f.id)
	}
	if *list {
		for _, f := range figures {
			fmt.Printf("  %-12s %s\n", f.id, f.desc)
		}
		prof.Exit(0)
	}
	want := strings.Split(*figure, ",")
	if *figure == "all" {
		want = ids
	}
	known := map[string]bool{}
	for _, id := range ids {
		known[id] = true
	}
	for _, id := range want {
		if !known[id] {
			fmt.Fprintf(os.Stderr, "unknown figure %q; known: %s (try -list)\n", id, strings.Join(ids, " "))
			prof.Exit(2)
		}
	}
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "-trials must be at least 1, got %d\n", *trials)
		prof.Exit(2)
	}
	// Every figure computes at once on its own goroutine; main prints them
	// in the requested order, each as soon as it and those before it are
	// done. A panic on any goroutine ends the process.
	var pass experiment.Pass
	printers := make([]chan func(), len(want))
	for i, id := range want {
		printers[i] = make(chan func(), 1)
		go func() {
			start := time.Now()
			show := compute(&pass, id, *trials, *breakdown)
			if *progress {
				fmt.Fprintf(os.Stderr, "figure %s: computed in %v\n", id, time.Since(start).Round(time.Millisecond))
			}
			printers[i] <- show
		}()
	}
	for _, printer := range printers {
		(<-printer)()
		fmt.Println()
	}
	prof.Exit(0)
}

// emitCSV switches table rendering to CSV.
var emitCSV bool

// misbehave selects a single supervision rung for -figure supervision.
var misbehave string

// offloadRung selects a single policy:environment rung for -figure offload.
var offloadRung string

// prof holds the -cpuprofile/-memprofile destinations; every exit after
// flag parsing goes through prof.Exit so the profiles are written.
var prof *profiling.Flags

// render prints a table in the selected format.
func render(t *experiment.Table) {
	if emitCSV {
		if t.Title != "" {
			fmt.Println("# " + t.Title)
		}
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t.String())
}

// compute makes figure id from the pass and returns the function that
// prints it. It runs on its own goroutine, so it only computes: everything
// it prints or exits with, a usage error included, happens in the returned
// function, on the main goroutine, in request order.
func compute(p *experiment.Pass, id string, trials int, breakdown bool) func() {
	switch id {
	case "fig2":
		profile := experiment.Figure2(1).String()
		return func() {
			fmt.Println("Figure 2: PowerScope energy profile of 30 s of video playback")
			fmt.Println(profile)
		}
	case "fig4":
		return table(experiment.Figure4())
	case "fig6":
		return grid(p.Figure6(trials), breakdown)
	case "fig8":
		return grid(p.Figure8(trials), breakdown)
	case "fig10":
		return grid(p.Figure10(trials), breakdown)
	case "fig11":
		t := p.Figure11(trials).Table()
		return func() {
			fmt.Println("Figure 11: effect of user think time for map viewing (San Jose)")
			render(t)
		}
	case "fig13":
		return grid(p.Figure13(trials), breakdown)
	case "fig14":
		t := experiment.Figure14(trials).Table()
		return func() {
			fmt.Println("Figure 14: effect of user think time for Web browsing (Image 1)")
			render(t)
		}
	case "fig15":
		return table(experiment.ConcurrencyTable(p.Figure15(trials)))
	case "fig16":
		return table(p.Figure16(min(trials, 3)).Table())
	case "fig18":
		return table(experiment.ZonedTable(experiment.Figure18(min(trials, 3))))
	case "fig19":
		rs := experiment.Figure19()
		return func() { printTraces(rs) }
	case "fig20":
		return table(p.Figure20(trials).Table())
	case "fig21":
		return table(experiment.Figure21(trials).Table())
	case "fig22":
		return table(experiment.BurstyTable(p.Figure22(trials)))
	case "ablations":
		return table(experiment.Ablations(trials).Table())
	case "measurement":
		return table(experiment.MeasurementPaths(trials).Table())
	case "dvs":
		return table(experiment.DVSTable(experiment.DVSPaths(trials)))
	case "quality":
		return table(experiment.QualityTable(experiment.QualityEnergy(min(trials, 3))))
	case "policy":
		return table(experiment.DecentralizedComparison(min(trials, 3)).Table())
	case "resilience":
		return table(p.FigureResilience(min(trials, 3)).Table())
	case "supervision":
		if misbehave != "" {
			if !slices.Contains(experiment.MisbehaveSeverities, misbehave) {
				return usageError("unknown misbehavior severity %q; known: %s",
					misbehave, strings.Join(experiment.MisbehaveSeverities, " "))
			}
			r := runOne(func() experiment.GoalResult { return experiment.RunSupervisionTrial(misbehave, 2662) })
			return func() {
				fmt.Printf("Supervision trial (%s): met=%v residual %.0f J (%.1f%% of supply), supervise energy %.1f J\n",
					misbehave, r.Met, r.Residual, r.Residual/experiment.Figure20InitialEnergy*100, r.SuperviseEnergy)
				fmt.Printf("  missed acks %d, restarts %d, quarantined %v, strikes %v\n",
					r.MissedAcks, r.Restarts, r.Quarantined, r.Strikes)
			}
		}
		return table(p.FigureSupervision(min(trials, 3)).Table())
	case "offload":
		if offloadRung != "" {
			policy, env, ok := strings.Cut(offloadRung, ":")
			if !ok {
				return usageError("offload rung %q is not policy:environment (e.g. auto:crash)", offloadRung)
			}
			if !slices.Contains(experiment.OffloadPolicies, policy) || !slices.Contains(experiment.OffloadSeverities, env) {
				return usageError("unknown offload rung %q; policies: %s; environments: %s",
					offloadRung, strings.Join(experiment.OffloadPolicies, " "), strings.Join(experiment.OffloadSeverities, " "))
			}
			r := runOne(func() experiment.GoalResult { return experiment.RunOffloadTrial(policy, env, 2800) })
			return func() {
				fmt.Printf("Offload trial (%s policy, %s environment): met=%v residual %.0f J (%.1f%% of supply), offload energy %.1f J\n",
					policy, env, r.Met, r.Residual, r.Residual/experiment.Figure20InitialEnergy*100, r.OffloadEnergy)
				fmt.Printf("  verdicts local %d / remote %d / hybrid %d; hedges %d, failovers %d, fallbacks %d, breaker trips %d\n",
					r.OffloadLocal, r.OffloadRemote, r.OffloadHybrid,
					r.OffloadHedges, r.OffloadFailovers, r.OffloadFallbacks, r.BreakerTrips)
			}
		}
		return table(experiment.FigureOffload(min(trials, 3)).Table())
	case "check":
		rs := experiment.Validate(p, min(trials, 3))
		return func() {
			render(experiment.ValidationTable(rs))
			failed := 0
			for _, r := range rs {
				if !r.Pass {
					failed++
				}
			}
			fmt.Printf("%d/%d checks passed\n", len(rs)-failed, len(rs))
			if failed > 0 {
				prof.Exit(1)
			}
		}
	}
	return func() {}
}

// table returns the printer of one rendered table.
func table(t *experiment.Table) func() { return func() { render(t) } }

// grid returns the printer of a fixed-fidelity grid.
func grid(g *experiment.Grid, breakdown bool) func() { return func() { printGrid(g, breakdown) } }

// usageError returns a printer that reports a bad flag value on stderr and
// exits with status 2 when its figure's turn to print comes.
func usageError(format string, args ...any) func() {
	return func() {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		prof.Exit(2)
	}
}

// runOne makes a single goal run as a task, so it counts against the task
// budget like every figure's runs.
func runOne(run func() experiment.GoalResult) experiment.GoalResult {
	var r experiment.GoalResult
	experiment.RunTasks(1, func(int) { r = run() })
	return r
}

func printGrid(g *experiment.Grid, breakdown bool) {
	render(g.Table())
	if emitCSV {
		return
	}
	fmt.Println("Savings relative to baseline (bar 1) and hardware-only power management (bar 2):")
	for bi := 1; bi < len(g.Bars); bi++ {
		lo, hi := g.SavingsRange(bi, 0)
		lo2, hi2 := g.SavingsRange(bi, 1)
		fmt.Printf("  %-30s vs baseline: %5.1f%%..%5.1f%%   vs hw-only: %5.1f%%..%5.1f%%\n",
			g.Bars[bi], lo*100, hi*100, lo2*100, hi2*100)
	}
	if breakdown {
		for oi := range g.Objects {
			fmt.Println()
			render(g.BreakdownTable(oi))
		}
	}
}

// printTraces emits the Figure 19 series: an ASCII supply/demand chart plus
// a downsampled table of per-application fidelity levels.
func printTraces(results []experiment.GoalResult) {
	for _, r := range results {
		fmt.Printf("Figure 19 trace: goal %v (met=%v, residual %.0f J)\n", r.Goal, r.Met, r.Residual)
		fmt.Println(experiment.SupplyDemandChart("", r.Trace))
		fmt.Printf("%8s %10s %10s  %s\n", "t (s)", "supply (J)", "demand (J)", "levels")
		step := len(r.Trace) / 24
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(r.Trace); i += step {
			tp := r.Trace[i]
			apps := make([]string, 0, len(tp.Levels))
			for name := range tp.Levels {
				apps = append(apps, name)
			}
			sort.Strings(apps)
			lv := make([]string, 0, len(apps))
			for _, a := range apps {
				lv = append(lv, fmt.Sprintf("%s=%d", a, tp.Levels[a]))
			}
			fmt.Printf("%8.0f %10.0f %10.0f  %s\n",
				tp.Time.Seconds(), tp.Supply, tp.Demand, strings.Join(lv, " "))
		}
		fmt.Println()
	}
}
