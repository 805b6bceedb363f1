// Command odyssey-fleet runs a simulated device fleet: N independent
// device-sessions derived from a seeded population model (device-class mix
// × user-behavior mix × staggered churn), executed on private rigs across
// the experiment worker pool, and reduced into a mergeable scorecard with
// percentile dashboards. Memory stays O(workers+shards) regardless of N,
// and the scorecard is byte-identical for a given (population, seed,
// devices, shards) at any -parallel width.
//
// Usage:
//
//	odyssey-fleet -devices 10000 -seed 1                 # fleet soak
//	odyssey-fleet -devices 1000000 -progress             # million-device soak
//	odyssey-fleet -devices 10000 -journal run.jsonl      # journal shards as they finish
//	odyssey-fleet -devices 10000 -journal run.jsonl -resume  # skip journaled shards
//	odyssey-fleet -devices 500 -parallel 1 > a.txt       # determinism probe:
//	odyssey-fleet -devices 500 -parallel 4 > b.txt       #   a.txt == b.txt
//	odyssey-fleet -population                            # print the population model
//	odyssey-fleet -devices 1000 -cpuprofile cpu.out      # also write a CPU profile
//
// SIGINT is trapped: in-flight shards finish and journal, a partial
// scorecard prints, and the process exits 130 with the resume command on
// stderr. A second SIGINT kills immediately. A resumed run merges the
// journaled shards with the freshly-run ones into a scorecard
// byte-identical to an uninterrupted run's.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"odyssey/internal/experiment"
	"odyssey/internal/fleet"
	"odyssey/internal/journal"
	"odyssey/internal/profiling"
)

func main() {
	var (
		devices     = flag.Int("devices", 0, "device-sessions to run (session-count mode)")
		seed        = flag.Int64("seed", 1, "fleet seed; session i derives from (seed, i)")
		parallel    = flag.Int("parallel", runtime.NumCPU(), "worker goroutines (never affects output bytes)")
		shards      = flag.Int("shards", fleet.DefaultShards, "reduction shards (part of the replay geometry)")
		horizon     = flag.Duration("horizon", 0, "churn window for session start stagger (0 = population default)")
		progress    = flag.Bool("progress", false, "per-shard progress on stderr")
		journalPath = flag.String("journal", "", "crash-safe shard journal (geometry header + one fsync'd JSON line per shard)")
		resume      = flag.Bool("resume", false, "merge journaled shards instead of re-running them")
		dashboard   = flag.Bool("dashboard", true, "include percentile dashboards in the scorecard")
		popOnly     = flag.Bool("population", false, "print the population model and exit")
	)
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()

	pop := fleet.DefaultPopulation()
	if *horizon > 0 {
		pop.Horizon = *horizon
	}
	if *popOnly {
		printPopulation(pop)
		return
	}
	if *devices <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	experiment.SetParallelism(*parallel)
	opts := fleet.RunOptions{
		Population: pop,
		Seed:       *seed,
		Devices:    *devices,
		Shards:     *shards,
		Journal:    *journalPath,
		Resume:     *resume,
		Stop:       journal.TrapInterrupt("shards"),
	}
	if *progress {
		opts.Progress = os.Stderr
	}

	start := time.Now()
	res, err := fleet.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		prof.Exit(2)
	}
	wall := time.Since(start)
	// Wall-clock throughput goes to stderr: the scorecard on stdout must
	// stay byte-identical across runs and worker counts.
	fmt.Fprintf(os.Stderr, "ran %d sessions in %v (%.0f sessions/s, parallel=%d)\n",
		*devices, wall.Round(time.Millisecond), float64(*devices)/wall.Seconds(), experiment.Parallelism())
	if res.ReplayedShards > 0 {
		fmt.Fprintf(os.Stderr, "resume: %d shard(s) replayed from the journal, %d ran\n",
			res.ReplayedShards, res.RanShards)
	}

	res.Scorecard(os.Stdout, *dashboard)
	if res.Interrupted {
		fmt.Fprintf(os.Stderr, "interrupted: %d shard(s) not run; resume with:\n  %s\n",
			res.SkippedShards, journal.ResumeCommand())
		prof.Exit(130)
	}
	prof.Exit(0)
}

// printPopulation dumps the population model: the class and behavior mixes
// and a few example derived sessions.
func printPopulation(pop fleet.Population) {
	fmt.Printf("population %q: horizon=%v supply=%.0f-%.0f W nominal\n", pop.Name, pop.Horizon, pop.Watts.Lo, pop.Watts.Hi)
	fmt.Println("device classes:")
	for _, c := range pop.Classes {
		fmt.Printf("  %-10s weight=%.2f power×[%.2f,%.2f] link×[%.2f,%.2f] battery×[%.2f,%.2f] smart=%.0f%% peukert=[%.2f,%.2f]\n",
			c.Name, c.Weight, c.Power.Lo, c.Power.Hi, c.Link.Lo, c.Link.Hi,
			c.Battery.Lo, c.Battery.Hi, 100*c.SmartBattery, c.Peukert.Lo, c.Peukert.Hi)
	}
	fmt.Println("behaviors:")
	for _, b := range pop.Behaviors {
		fmt.Printf("  %-12s weight=%.2f apps=%v bursty=%.0f%% goal=[%v,%v] period×[%.1f,%.1f] supervise=%.0f%% faults=%.0f%% misbehave=%.0f%%\n",
			b.Name, b.Weight, b.AppP, 100*b.Bursty, b.Goal.Lo, b.Goal.Hi,
			b.Period.Lo, b.Period.Hi, 100*b.Supervise, 100*b.FaultP, 100*b.MisP)
	}
	fmt.Println("example sessions (seed 1):")
	for i := 0; i < 5; i++ {
		s := pop.Session(1, i)
		fmt.Printf("  #%d class=%s behavior=%s goal=%v apps=%v energy=%.0fJ start=+%v faults=%v misbehave=%v\n",
			i, s.Class, s.Behavior, s.Goal, s.Apps, s.InitialEnergy, s.Start, s.Faults != nil, s.Misbehave != nil)
	}
}
