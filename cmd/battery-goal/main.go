// Command battery-goal demonstrates goal-directed energy adaptation: given
// an initial energy supply and a battery-duration goal, it runs the
// concurrent workload (background video plus a composite speech/web/map
// application) under Odyssey's direction and reports whether the goal was
// met, the residual energy, the adaptations performed, and a supply/demand
// trace.
//
// Usage:
//
//	battery-goal -joules 22650 -goal 24m [-faults mid] [-misbehave mid] [-trace trace.csv]
//	battery-goal -goal 24m -cpuprofile cpu.out -memprofile mem.out
//
// -misbehave arms the application supervisor and (for severities other
// than "none") injects the named application-misbehavior ladder; with the
// flag empty the supervisor is disarmed and runs are byte-identical to
// earlier releases. -joules must be finite and above zero, -goal must not be
// negative, and the feasible band (no -goal) takes a supply of at most about
// 2.9e10 J; anything else is a usage error (exit status 2).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"odyssey/internal/experiment"
	"odyssey/internal/faults"
	"odyssey/internal/profiling"
	"odyssey/internal/trace"
)

func main() {
	joules := flag.Float64("joules", experiment.Figure20InitialEnergy, "initial energy supply (J)")
	goal := flag.Duration("goal", 0, "battery-duration goal (e.g. 24m); 0 prints the feasible band")
	bursty := flag.Bool("bursty", false, "use the stochastic bursty workload")
	seed := flag.Int64("seed", 1, "simulation seed")
	traceFile := flag.String("trace", "", "write the supply/demand/fidelity trace as CSV")
	faultsArg := flag.String("faults", "none", "fault plan severity: none, mild, mid, severe")
	misbehaveArg := flag.String("misbehave", "", "arm the application supervisor under a misbehavior ladder: none, mild, mid, severe (empty = supervisor disarmed)")
	offloadN := flag.Int("offload", 0, "arm the offload plane with an N-server pool (0 = disarmed; paths byte-identical to earlier releases)")
	offloadLoad := flag.Float64("offload-load", 0, "with -offload: mean cross-device background load per pool server")
	offloadPolicy := flag.String("offload-policy", "", "with -offload: force placement policy local or remote (empty = cost model)")
	offloadNoHedge := flag.Bool("offload-nohedge", false, "with -offload: disable hedged requests")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for independent simulation runs (1 = serial; output is identical either way)")
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !(*joules > 0) || math.IsInf(*joules, 1) {
		fmt.Fprintf(os.Stderr, "-joules must be a finite supply above 0 J, got %v\n", *joules)
		prof.Exit(2)
	}
	if *goal < 0 {
		fmt.Fprintf(os.Stderr, "-goal must not be negative, got %v\n", *goal)
		prof.Exit(2)
	}
	if _, ok := experiment.BandGoal(*joules); *goal == 0 && !ok {
		fmt.Fprintf(os.Stderr, "-joules %v is too large a supply to measure the feasible band (give a -goal)\n", *joules)
		prof.Exit(2)
	}
	experiment.SetParallelism(*parallel)

	faultPlan, ok := experiment.ResiliencePlan(*faultsArg, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown fault severity %q; known: %s\n",
			*faultsArg, strings.Join(experiment.ResilienceSeverities, " "))
		prof.Exit(2)
	}
	var misPlan *faults.PlanSpec
	if *misbehaveArg != "" {
		misPlan, ok = experiment.MisbehavePlan(*misbehaveArg, *seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown misbehavior severity %q; known: %s\n",
				*misbehaveArg, strings.Join(experiment.MisbehaveSeverities, " "))
			prof.Exit(2)
		}
	}

	if *goal == 0 {
		// The two fixed-fidelity endpoint runs are independent
		// simulations; FeasibleBand fans them across the worker pool.
		hi, lo := experiment.FeasibleBand(*seed, *joules)
		fmt.Printf("Feasible battery-duration band for %.0f J:\n", *joules)
		fmt.Printf("  highest fidelity: %v\n", hi.Round(1e9))
		fmt.Printf("  lowest fidelity:  %v\n", lo.Round(1e9))
		fmt.Printf("Goals within this band can be met by adaptation (a %.0f%% extension).\n",
			(lo.Seconds()/hi.Seconds()-1)*100)
		prof.Exit(0)
	}

	var offloadCfg *experiment.OffloadConfig
	if *offloadN > 0 {
		switch *offloadPolicy {
		case "", "auto", "local", "remote":
		default:
			fmt.Fprintf(os.Stderr, "unknown offload policy %q; known: local remote auto\n", *offloadPolicy)
			prof.Exit(2)
		}
		offloadCfg = &experiment.OffloadConfig{
			Servers:    *offloadN,
			Contention: *offloadLoad,
			NoHedge:    *offloadNoHedge,
			Policy:     *offloadPolicy,
		}
	}

	r, err := experiment.RunPlanned(experiment.GoalOptions{
		Seed:          *seed,
		InitialEnergy: *joules,
		Goal:          *goal,
		Bursty:        *bursty,
		RecordTrace:   true,
		Supervise:     *misbehaveArg != "",
		Offload:       offloadCfg,
		RecordEvents:  true,
	}, faultPlan, misPlan)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		prof.Exit(1)
	}
	status := "MET"
	if !r.Met {
		status = "NOT MET"
	}
	fmt.Printf("Goal %v: %s (ran %v, residual %.0f J = %.1f%% of supply)\n",
		*goal, status, r.EndTime.Round(1e9), r.Residual, r.Residual / *joules * 100)
	if *faultsArg != "none" {
		fmt.Printf("Fault plan %q: %d events; retries %d (%.0f J, %.0f KB), deadline aborts %d\n",
			*faultsArg, r.FaultEvents, r.RetryAttempts, r.RetryEnergy, r.RetryBytes/1e3, r.DeadlineAborts)
		fmt.Printf("Graceful degradation: speech fallbacks %d, web bypasses %d, cache hits %d, video chunks lost %d, missed power samples %d\n",
			r.Fallbacks, r.Bypasses, r.CacheHits, r.ChunksLost, r.MissedSamples)
	}
	if *misbehaveArg != "" {
		fmt.Printf("Supervision (%q ladder): %.1f J charged to the supervise principal; missed acks %d, restarts %d\n",
			*misbehaveArg, r.SuperviseEnergy, r.MissedAcks, r.Restarts)
		if len(r.Quarantined) > 0 {
			fmt.Printf("  quarantined %v; surviving budget shares:", r.Quarantined)
			names := make([]string, 0, len(r.BudgetShares))
			for n := range r.BudgetShares {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf(" %s=%.2f", n, r.BudgetShares[n])
			}
			fmt.Println()
		}
		if len(r.Strikes) > 0 {
			causes := make([]string, 0, len(r.Strikes))
			for c := range r.Strikes {
				causes = append(causes, c)
			}
			sort.Strings(causes)
			fmt.Print("  strikes:")
			for _, c := range causes {
				fmt.Printf(" %s=%d", c, r.Strikes[c])
			}
			fmt.Println()
		}
	}
	if offloadCfg != nil {
		fmt.Printf("Offload (%d-server pool): %.1f J charged to the offload principal; placements local %d, remote %d, hybrid %d\n",
			*offloadN, r.OffloadEnergy, r.OffloadLocal, r.OffloadRemote, r.OffloadHybrid)
		fmt.Printf("  robustness: hedges %d, failovers %d, degrade-to-local fallbacks %d, breaker trips %d\n",
			r.OffloadHedges, r.OffloadFailovers, r.OffloadFallbacks, r.BreakerTrips)
	}
	if len(r.Trace) > 1 {
		fmt.Println(experiment.SupplyDemandChart("Supply and predicted demand", r.Trace))
	}
	fmt.Println("Adaptations directed by Odyssey:")
	names := make([]string, 0, len(r.Adaptations))
	for n := range r.Adaptations {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-8s %d\n", n, r.Adaptations[n])
	}

	if (*faultsArg != "none" || *misbehaveArg != "") && r.Events != nil {
		fmt.Println("Timeline (fault and supervision events alongside adaptation and monitor decisions):")
		shown, total := 0, 0
		const maxLines = 60
		for _, e := range r.Events.Events() {
			if e.Category != trace.CatFault && e.Category != trace.CatAdapt &&
				e.Category != trace.CatMonitor && e.Category != trace.CatSupervise {
				continue
			}
			total++
			if shown < maxLines {
				fmt.Println("  " + e.String())
				shown++
			}
		}
		if total > shown {
			fmt.Printf("  (%d more events)\n", total-shown)
		}
	}

	if *traceFile != "" {
		apps := make([]string, 0)
		if len(r.Trace) > 0 {
			for n := range r.Trace[0].Levels {
				apps = append(apps, n)
			}
			sort.Strings(apps)
		}
		var csv strings.Builder
		fmt.Fprintf(&csv, "t_seconds,supply_j,demand_j,%s\n", strings.Join(apps, ","))
		for _, tp := range r.Trace {
			fmt.Fprintf(&csv, "%.1f,%.1f,%.1f", tp.Time.Seconds(), tp.Supply, tp.Demand)
			for _, a := range apps {
				fmt.Fprintf(&csv, ",%d", tp.Levels[a])
			}
			csv.WriteByte('\n')
		}
		if err := os.WriteFile(*traceFile, []byte(csv.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			prof.Exit(1)
		}
		fmt.Printf("Trace written to %s (%d points)\n", *traceFile, len(r.Trace))
	}
	prof.Exit(0)
}
