package chaos

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"odyssey/internal/experiment"
	"odyssey/internal/journal"
)

// The soak driver: generate scenario i from (base seed + i) — or take it
// from a fixed corpus — run it through the sentinel suite on the experiment
// scheduler's worker pool, and shrink whatever fails. Results merge in
// index order, so a parallel soak reports failures identically to a serial
// one. With a journal attached, each scenario's full outcome is appended
// and fsync'd as it completes, and a resumed soak replays the journal to
// skip finished work while producing a byte-identical report.

// SoakOptions parameterizes one soak.
type SoakOptions struct {
	// Seed is the base seed; scenario i uses Seed+i.
	Seed int64
	// Count is how many scenarios to run.
	Count int
	// Scenarios, when non-nil, soaks exactly these scenarios instead of
	// generating Count from Seed (the containment smoke soaks a fixed
	// corpus this way). Count and Seed are ignored.
	Scenarios []Scenario
	// Shrink minimizes each failing scenario before reporting it.
	Shrink bool
	// ShrinkBudget bounds candidate runs per shrink (<=0 = default 200).
	ShrinkBudget int
	// Dir, when non-empty, receives the failing scenarios (and their
	// shrunk forms) as JSON files for replay.
	Dir string
	// Progress, when non-nil, receives one line per failure and per
	// accepted shrink step as they happen.
	Progress io.Writer
	// Journal, when non-empty, is the outcome journal (one fsync'd JSON
	// line per completed scenario; see journal.go). Without Resume it is
	// truncated first.
	Journal string
	// Resume replays Journal before running: journaled indices whose
	// scenario id still matches are skipped and their recorded outcomes
	// merged into the summary verbatim.
	Resume bool
	// Deadline, when positive, bounds each scenario's wall-clock runtime.
	// It is the backstop behind the kernel's virtual-time stall detector:
	// a worker that exceeds it is abandoned (its goroutine leaks until the
	// run it is stuck in ends, if ever) and the scenario is reported as a
	// stall violation. Because it is wall-clock, a tripped deadline is the
	// one outcome that is not reproducible run to run; size it generously.
	Deadline time.Duration
	// Stop, when non-nil, is polled before each scenario starts; once it
	// returns true, unstarted scenarios are skipped and the summary is
	// marked interrupted. In-flight scenarios run to completion so their
	// journal entries stay whole.
	Stop func() bool
}

// Failure is one failing scenario, minimized when shrinking was on.
type Failure struct {
	Scenario Scenario
	Report   Report
	// Err is set when the scenario could not run at all (a malformed
	// spec), in which case Report is empty.
	Err error
	// Shrunk is the minimized reproduction (nil when shrinking was off or
	// the scenario errored).
	Shrunk *ShrinkResult
	// Path/ShrunkPath are the saved scenario files (when Dir was set);
	// Repro is the one-line replay command for the smallest saved form.
	Path       string
	ShrunkPath string
	Repro      string
}

// SoakSummary is the soak's aggregate outcome.
type SoakSummary struct {
	// Requested is the scenario count the soak was asked for; Ran counts
	// scenarios executed this session, Replayed those merged from the
	// journal, and NotRun those skipped after an interrupt.
	Requested int
	Ran       int
	Replayed  int
	NotRun    int
	// Interrupted reports that Stop tripped before every scenario ran.
	Interrupted bool
	Failures    []Failure
}

// OK reports whether every scenario that ran passed every sentinel.
func (s *SoakSummary) OK() bool { return len(s.Failures) == 0 }

// Complete reports whether every requested scenario has an outcome.
func (s *SoakSummary) Complete() bool { return s.Ran+s.Replayed == s.Requested }

// WriteReport renders the soak outcome deterministically: everything
// derives from scenario outcomes (never wall-clock or worker count), and
// failures appear in scenario-index order, so an uninterrupted soak and a
// kill-plus-resume soak over the same inputs render byte-identical reports.
func (s *SoakSummary) WriteReport(w io.Writer) {
	_, _ = io.WriteString(w, s.ReportString())
}

// ReportString renders the report (Builder writes cannot fail, so the
// renderer is infallible; WriteReport adapts it to an io.Writer).
func (s *SoakSummary) ReportString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak report\n")
	fmt.Fprintf(&b, "scenarios: %d requested, %d audited\n", s.Requested, s.Ran+s.Replayed)
	counts := make(map[string]int)
	for _, f := range s.Failures {
		for _, v := range f.Report.Violations {
			counts[v.Sentinel]++
		}
		if f.Err != nil {
			counts["error"]++
		}
	}
	if len(counts) == 0 {
		fmt.Fprintf(&b, "violations: none\n")
	} else {
		names := make([]string, 0, len(counts))
		for n := range counts {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "violations:")
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d", n, counts[n])
		}
		fmt.Fprintf(&b, "\n")
	}
	for _, f := range s.Failures {
		if f.Err != nil {
			fmt.Fprintf(&b, "FAIL %s: %v\n", f.Scenario.ID(), f.Err)
			continue
		}
		fmt.Fprintf(&b, "FAIL %s\n", f.Report.String())
		if f.Shrunk != nil {
			fmt.Fprintf(&b, "  shrunk %s -> %s (%d reductions, %d trials)\n",
				f.Scenario.ID(), f.Shrunk.Scenario.ID(), f.Shrunk.Accepted, f.Shrunk.Tried)
		}
		if f.Repro != "" {
			fmt.Fprintf(&b, "  repro: %s\n", f.Repro)
		}
	}
	return b.String()
}

// runContained runs one scenario under the wall-clock deadline backstop.
// With no deadline it is Run itself: every panic and stall inside Run is
// already fenced. With a deadline, the run happens on a sacrificial
// goroutine; on timeout the goroutine is abandoned and the scenario
// reported as a stall. The goroutine captures only the plain-data scenario
// — it builds its own private rig — so the kernel baton contract is
// untouched.
func runContained(sc Scenario, deadline time.Duration) (*Outcome, error) {
	if deadline <= 0 {
		return Run(sc)
	}
	type result struct {
		out *Outcome
		err error
	}
	ch := make(chan result, 1)
	//odylint:allow detrand wall-clock deadline backstop for true hangs; it never feeds the simulation
	start := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				// Nothing may panic off this goroutine once the parent
				// stops listening: it would kill the program.
				ch <- result{nil, fmt.Errorf("chaos: panic escaped containment: %v", r)}
			}
		}()
		out, err := Run(sc)
		ch <- result{out, err}
	}()
	select {
	case r := <-ch:
		// The kernel switches processes without passing through the Go
		// scheduler, so a run can finish past its deadline before the timer
		// below is serviced. Judge the run by its elapsed time, not by
		// which channel the scheduler happened to ready first.
		//odylint:allow detrand wall-clock deadline backstop for true hangs; it never feeds the simulation
		if time.Since(start) <= deadline {
			return r.out, r.err
		}
	//odylint:allow detrand wall-clock deadline backstop for true hangs; it never feeds the simulation
	case <-time.After(deadline):
	}
	out := &Outcome{Scenario: sc, Report: Report{ScenarioID: sc.ID()}}
	out.Report.add(SentinelStall, fmt.Sprintf("wall-clock deadline %v exceeded; worker abandoned", deadline))
	return out, nil
}

// Soak runs the requested scenarios and returns every failure. The
// scenario runs fan out over experiment.RunTasks (see SetParallelism);
// shrinking, file output, and journaling happen serially afterwards in
// index order, so the pool never contends on the filesystem and the
// journal's contents are independent of worker interleaving.
func Soak(opts SoakOptions) (*SoakSummary, error) {
	logf := func(format string, args ...any) {
		if opts.Progress != nil {
			_, _ = fmt.Fprintf(opts.Progress, format+"\n", args...)
		}
	}
	count := opts.Count
	scenario := func(i int) Scenario { return Generate(opts.Seed + int64(i)) }
	if opts.Scenarios != nil {
		count = len(opts.Scenarios)
		scenario = func(i int) Scenario { return opts.Scenarios[i] }
	}

	done := make(map[int]journalEntry)
	var jw *journal.Writer
	if opts.Journal != "" {
		// The last entry for an index wins; entries whose scenario id no
		// longer matches the index are rejected and re-run.
		var warnings []string
		var err error
		jw, warnings, err = journal.Open(opts.Journal, journalHeader, opts.Resume, func(line []byte) error {
			e, err := decodeEntry(line)
			switch {
			case err != nil:
				return err
			case e.I < 0 || e.I >= count:
				return fmt.Errorf("entry %d outside the soak", e.I)
			case scenario(e.I).ID() != e.ID:
				return fmt.Errorf("entry %d recorded scenario %s, soak has %s; re-running", e.I, e.ID, scenario(e.I).ID())
			}
			done[e.I] = e
			return nil
		})
		for _, warning := range warnings {
			logf("%s", warning)
		}
		if err != nil {
			return nil, err
		}
		// Each entry is fsync'd as it lands; nothing is left to flush here.
		defer func() { _ = jw.Close() }()
	}

	type slot struct {
		out    *Outcome
		err    error
		ran    bool
		notRun bool
	}
	slots := make([]slot, count)
	experiment.RunTasks(count, func(i int) {
		if _, ok := done[i]; ok {
			return
		}
		if opts.Stop != nil && opts.Stop() {
			slots[i].notRun = true
			return
		}
		out, err := runContained(scenario(i), opts.Deadline)
		slots[i] = slot{out: out, err: err, ran: true}
	})

	sum := &SoakSummary{Requested: count}
	for i := range slots {
		if e, ok := done[i]; ok {
			sum.Replayed++
			if !e.OK {
				sum.Failures = append(sum.Failures, e.failure())
			}
			continue
		}
		s := &slots[i]
		if s.notRun || !s.ran {
			sum.NotRun++
			sum.Interrupted = true
			continue
		}
		sum.Ran++
		sc := scenario(i)
		entry := journalEntry{I: i, ID: sc.ID()}
		if s.err != nil {
			logf("FAIL %s: %v", sc.ID(), s.err)
			sum.Failures = append(sum.Failures, Failure{Scenario: sc, Err: s.err})
			entry.F = &journalFailure{Scenario: sc, Err: s.err.Error()}
		} else if s.out.Report.OK() {
			entry.OK = true
		} else {
			f := Failure{Scenario: sc, Report: s.out.Report}
			logf("FAIL %s", s.out.Report.String())
			if opts.Shrink {
				sr := Shrink(sc, s.out.Report.First(), opts.ShrinkBudget, func(line string) { logf("%s", line) })
				f.Shrunk = &sr
				logf("shrunk %s -> %s (%d reductions, %d trials)", sc.ID(), sr.Scenario.ID(), sr.Accepted, sr.Tried)
			}
			if opts.Dir != "" {
				var err error
				if f.Path, err = sc.Save(opts.Dir); err != nil {
					return nil, err
				}
				f.Repro = ReproCommand(f.Path)
				if f.Shrunk != nil {
					if f.ShrunkPath, err = f.Shrunk.Scenario.Save(opts.Dir); err != nil {
						return nil, err
					}
					f.Repro = ReproCommand(f.ShrunkPath)
				}
				logf("repro: %s", f.Repro)
			}
			sum.Failures = append(sum.Failures, f)
			entry.F = &journalFailure{
				Scenario: f.Scenario, Report: f.Report, Shrunk: f.Shrunk,
				Path: f.Path, ShrunkPath: f.ShrunkPath, Repro: f.Repro,
			}
		}
		if jw != nil {
			if err := jw.Append(entry); err != nil {
				return nil, err
			}
		}
	}
	return sum, nil
}
