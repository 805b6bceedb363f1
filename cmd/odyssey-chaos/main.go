// Command odyssey-chaos is the chaos soak harness: it generates randomized
// adversarial scenarios against the simulated testbed, audits every run
// with the invariant sentinel suite, shrinks failures to minimal
// reproductions, and replays saved scenario files and the regression
// corpus.
//
// Usage:
//
//	odyssey-chaos -soak 200 -seed 1 -shrink          # soak 200 scenarios
//	odyssey-chaos -soak 30s -seed 1                  # soak for a wall-clock budget
//	odyssey-chaos -soak 200 -journal run.jsonl       # journal outcomes as they complete
//	odyssey-chaos -soak 200 -journal run.jsonl -resume  # skip journaled work
//	odyssey-chaos -soak-corpus testdata/containment  # soak a fixed corpus
//	odyssey-chaos -scenario failing.json             # replay one scenario
//	odyssey-chaos -corpus internal/chaos/testdata/corpus  # replay the corpus
//	odyssey-chaos -soak 200 -cpuprofile cpu.out      # also write a CPU profile
//
// SIGINT is trapped: in-flight scenarios finish, their outcomes are
// journaled, a partial report prints, and the process exits 130 with the
// resume command on stderr. A second SIGINT kills immediately.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"odyssey/internal/chaos"
	"odyssey/internal/experiment"
	"odyssey/internal/journal"
	"odyssey/internal/profiling"
)

func main() {
	var (
		soak        = flag.String("soak", "", "soak budget: a scenario count (e.g. 200) or a wall-clock duration (e.g. 30s)")
		soakCorpus  = flag.String("soak-corpus", "", "soak every scenario in a corpus directory (instead of generating)")
		seed        = flag.Int64("seed", 1, "base seed; scenario i uses seed+i")
		shrink      = flag.Bool("shrink", true, "minimize failing scenarios before reporting")
		budget      = flag.Int("shrink-budget", 200, "max candidate runs per shrink")
		parallel    = flag.Int("parallel", runtime.NumCPU(), "worker goroutines for the soak")
		outDir      = flag.String("out", "chaos-failures", "directory for failing-scenario files")
		journalPath = flag.String("journal", "", "outcome journal (JSON lines, fsync'd per scenario; started over unless -resume)")
		resume      = flag.Bool("resume", false, "replay the journal first, skipping completed scenarios")
		deadline    = flag.Duration("deadline", 0, "wall-clock deadline per scenario (0 = none); backstops true hangs")
		report      = flag.String("report", "", "also write the deterministic soak report to this file")
		scenario    = flag.String("scenario", "", "replay one scenario file through the sentinel suite")
		corpus      = flag.String("corpus", "", "replay every scenario in a corpus directory")
		verbose     = flag.Bool("v", false, "per-scenario progress output")
	)
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	experiment.SetParallelism(*parallel)

	soakOpts := chaos.SoakOptions{
		Shrink:       *shrink,
		ShrinkBudget: *budget,
		Dir:          *outDir,
		Journal:      *journalPath,
		Resume:       *resume,
		Deadline:     *deadline,
	}
	switch {
	case *scenario != "":
		prof.Exit(replayFile(*scenario))
	case *corpus != "":
		prof.Exit(replayCorpus(*corpus, *verbose))
	case *soakCorpus != "":
		prof.Exit(runCorpusSoak(*soakCorpus, soakOpts, *report))
	case *soak != "":
		prof.Exit(runSoak(*soak, *seed, soakOpts, *report))
	default:
		flag.Usage()
		prof.Exit(2)
	}
}

// finishSoak renders the report, handles the interrupted case, and maps the
// summary to an exit code.
func finishSoak(sum *chaos.SoakSummary, reportPath string, wall time.Duration) int {
	sum.WriteReport(os.Stdout)
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		sum.WriteReport(f)
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	fmt.Fprintf(os.Stderr, "soak: %d ran, %d replayed, %d failure(s) in %v\n",
		sum.Ran, sum.Replayed, len(sum.Failures), wall.Round(time.Millisecond))
	if sum.Interrupted {
		fmt.Fprintf(os.Stderr, "interrupted: %d scenario(s) not run; resume with:\n  %s\n", sum.NotRun, journal.ResumeCommand())
		return 130
	}
	if !sum.OK() {
		return 1
	}
	return 0
}

// replayFile runs one saved scenario and reports its sentinel audit.
func replayFile(path string) int {
	sc, err := chaos.LoadScenario(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("replaying %s\n", sc.Summary())
	out, err := chaos.Run(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Println(out.Report.String())
	if !out.Report.OK() {
		return 1
	}
	return 0
}

// replayCorpus runs every corpus scenario, expecting all sentinels to pass
// — the regression gate over previously-failing scenarios. Files that are
// not loadable scenarios are reported and skipped, not fatal: the corpus
// dir accumulates quarantined crashers and strays.
func replayCorpus(dir string, verbose bool) int {
	scs, paths, warnings, err := chaos.LoadCorpus(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, w := range warnings {
		fmt.Fprintf(os.Stderr, "warning: %s\n", w)
	}
	if len(scs) == 0 {
		fmt.Printf("corpus %s: no scenarios\n", dir)
		return 0
	}
	failed := 0
	for i, sc := range scs {
		out, err := chaos.Run(sc)
		switch {
		case err != nil:
			fmt.Printf("FAIL %s: %v\n", paths[i], err)
			failed++
		case !out.Report.OK():
			fmt.Printf("FAIL %s\n%s\n", paths[i], out.Report.String())
			failed++
		case verbose:
			fmt.Printf("ok   %s (%s)\n", paths[i], sc.ID())
		}
	}
	fmt.Printf("corpus %s: %d scenario(s), %d failure(s)\n", dir, len(scs), failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// runCorpusSoak soaks a fixed corpus through the full failure pipeline
// (sentinels, shrinking, quarantine, journal) — unlike -corpus, failures
// are expected and triaged, not merely reported.
func runCorpusSoak(dir string, opts chaos.SoakOptions, reportPath string) int {
	scs, _, warnings, err := chaos.LoadCorpus(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, w := range warnings {
		fmt.Fprintf(os.Stderr, "warning: %s\n", w)
	}
	if len(scs) == 0 {
		fmt.Printf("corpus %s: no scenarios\n", dir)
		return 0
	}
	opts.Scenarios = scs
	opts.Progress = os.Stderr
	opts.Stop = journal.TrapInterrupt("scenarios")
	start := time.Now()
	sum, err := chaos.Soak(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return finishSoak(sum, reportPath, time.Since(start))
}

// runSoak executes a generated soak: count budgets run as one resumable
// soak, wall-clock budgets run in batches until time is up.
func runSoak(budgetArg string, seed int64, opts chaos.SoakOptions, reportPath string) int {
	count, wall, err := parseSoakBudget(budgetArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	start := time.Now()
	if count > 0 {
		opts.Seed = seed
		opts.Count = count
		opts.Progress = os.Stderr
		opts.Stop = journal.TrapInterrupt("scenarios")
		sum, err := chaos.Soak(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		return finishSoak(sum, reportPath, time.Since(start))
	}

	// Wall-clock budget: batches re-derive their seeds from the running
	// total, so scenario indices restart every batch — incompatible with
	// the journal's index-addressed entries.
	if opts.Journal != "" || opts.Resume {
		fmt.Fprintln(os.Stderr, "odyssey-chaos: -journal/-resume need a scenario-count or corpus soak, not a wall-clock budget")
		return 2
	}
	stop := journal.TrapInterrupt("scenarios")
	ran, failures := 0, 0
	const batch = 50
	for !stop() && time.Since(start) < wall {
		batchOpts := opts
		batchOpts.Seed = seed + int64(ran)
		batchOpts.Count = batch
		batchOpts.Progress = os.Stdout
		batchOpts.Stop = stop
		sum, err := chaos.Soak(batchOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		ran += sum.Ran
		failures += len(sum.Failures)
		if sum.Interrupted {
			break
		}
	}
	fmt.Printf("soak: %d scenario(s) in %v, %d failure(s)\n", ran, time.Since(start).Round(time.Millisecond), failures)
	if failures > 0 {
		return 1
	}
	return 0
}

// parseSoakBudget interprets the -soak argument as a scenario count or a
// wall-clock duration.
func parseSoakBudget(s string) (count int, wall time.Duration, err error) {
	if n, err := strconv.Atoi(s); err == nil {
		if n <= 0 {
			return 0, 0, fmt.Errorf("odyssey-chaos: -soak count must be positive, got %d", n)
		}
		return n, 0, nil
	}
	d, derr := time.ParseDuration(s)
	if derr != nil {
		return 0, 0, fmt.Errorf("odyssey-chaos: -soak wants a count or duration, got %q", s)
	}
	if d <= 0 {
		return 0, 0, fmt.Errorf("odyssey-chaos: -soak duration must be positive, got %v", d)
	}
	return 0, d, nil
}
