package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/experiment"
	"odyssey/internal/faults"
	"odyssey/internal/sim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/workload"
)

// Ledger is the post-run accounting snapshot the sentinels audit, as
// RunGoal returns it in GoalResult.Ledger. It is a plain value so a test can
// corrupt a copy (via the mutateLedger hook below) and prove the sentinels
// catch what the simulation — which has no such bug — would never hand
// them.
type Ledger = experiment.Ledger

// mutateLedger, when non-nil, corrupts every captured ledger before the
// sentinels see it. It exists solely for mutation testing: the
// planted-accounting-bug test sets it to skim energy off one component and
// asserts the conservation sentinel catches and shrinks it. Never set
// outside tests.
var mutateLedger func(*Ledger)

// Outcome is one scenario's full audit.
type Outcome struct {
	Scenario Scenario
	Result   experiment.GoalResult
	// Ledger is Result.Ledger, kept as a field of its own because the
	// bench module reads it.
	Ledger Ledger
	Report Report
}

// BindRig forwards to experiment.BindRig. It stays only because the bench
// module calls it.
func BindRig(rig *env.Rig, bat *smartbattery.Battery, apps *workload.Apps) faults.Targets {
	return experiment.BindRig(rig, bat, apps)
}

// Contained describes a fault the containment fence recovered during one
// run: which sentinel it maps to (panic or stall) and the triage detail.
type Contained struct {
	Sentinel string
	Detail   string
}

// sentinelHook, when non-nil, runs at the head of the sentinel audit. It
// exists solely for containment self-tests that plant a panic inside the
// audit itself. Never set outside tests.
var sentinelHook func(sc Scenario)

// RunContained is the panic fence around one simulated session, shared by
// the soak and the fleet. It runs opt with the fault and misbehavior specs
// bound (experiment.RunPlanned). Any panic unwinding RunGoal — a process
// fault transported by the kernel (sim.ProcPanic), a kernel-context panic
// from an injector or callback, or the stall detector's sim.ErrStall — is
// recovered here and handed back as a contained fault, instead of killing
// the whole batch. The rig's goroutines are already torn down when the
// fence fires: RunGoal defers Kernel.Shutdown. A spec that fails to bind is
// the error, and wins over a contained fault.
func RunContained(opt experiment.GoalOptions, fault, misbehave *faults.PlanSpec) (res experiment.GoalResult, cv *Contained, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch f := r.(type) {
		case *sim.ErrStall:
			cv = &Contained{Sentinel: SentinelStall, Detail: f.Error()}
		case *sim.ProcPanic:
			cv = &Contained{Sentinel: SentinelPanic, Detail: fmt.Sprintf("%v\n%s", f.Error(), f.Stack)}
		default:
			// Kernel-context panic: the stack below this recover still
			// holds the crash site's frames, so capture it here.
			cv = &Contained{Sentinel: SentinelPanic, Detail: fmt.Sprintf("kernel-context panic: %v\n%s", r, sim.CallerStack(1))}
		}
	}()
	res, err = experiment.RunPlanned(opt, fault, misbehave)
	return res, nil, err
}

// runOnce executes the scenario once and returns everything the sentinels
// need: the goal result, whose ledger they audit, and a determinism
// fingerprint. A plan that fails to materialize (unknown target, missing
// battery) is a scenario error, not a sentinel violation; a panic or stall
// is returned as a contained fault.
func runOnce(sc Scenario) (experiment.GoalResult, string, *Contained, error) {
	res, cv, err := RunContained(experiment.GoalOptions{
		Seed:          sc.Seed,
		InitialEnergy: sc.InitialEnergy,
		Goal:          time.Duration(sc.Goal),
		Bursty:        sc.Bursty,
		SmartBattery:  sc.SmartBattery,
		Peukert:       sc.Peukert,
		Supervise:     sc.Supervise,
		Apps:          sc.AppsOrAll(),
		StallBound:    sc.StallBound,
		Offload:       sc.Offload,
		RecordEvents:  true,
	}, sc.Faults, sc.Misbehave)
	if err != nil {
		return res, "", nil, fmt.Errorf("chaos: scenario %s: %w", sc.ID(), err)
	}
	if cv != nil {
		return res, "", cv, nil
	}
	if mutateLedger != nil {
		mutateLedger(&res.Ledger)
	}
	return res, fingerprint(res), nil, nil
}

// fingerprint renders everything observable about a run into one string:
// the full event trace (text and CSV), the outcome, and the per-principal
// energy integrals in exact hex float form. Two runs of the same scenario
// must produce byte-identical fingerprints — the determinism sentinel.
func fingerprint(res experiment.GoalResult) string {
	var b strings.Builder
	if res.Events != nil {
		b.WriteString(res.Events.Text())
		b.WriteString(res.Events.CSV())
	}
	fmt.Fprintf(&b, "met=%v end=%v residual=%x\n", res.Met, res.EndTime, res.Residual)
	apps := make([]string, 0, len(res.Adaptations))
	for name := range res.Adaptations {
		apps = append(apps, name)
	}
	sort.Strings(apps)
	for _, name := range apps {
		fmt.Fprintf(&b, "adapt %s=%d fid=%x\n", name, res.Adaptations[name], res.MeanFidelity[name])
	}
	fmt.Fprintf(&b, "faults=%d retries=%d retryJ=%x restarts=%d quarantined=%v\n",
		res.FaultEvents, res.RetryAttempts, res.RetryEnergy, res.Restarts, res.Quarantined)
	fmt.Fprintf(&b, "offload local=%d remote=%d hybrid=%d hedges=%d failovers=%d fallbacks=%d trips=%d offJ=%x\n",
		res.OffloadLocal, res.OffloadRemote, res.OffloadHybrid, res.OffloadHedges,
		res.OffloadFailovers, res.OffloadFallbacks, res.BreakerTrips, res.OffloadEnergy)
	return b.String()
}

// firstDiff locates the first byte where two fingerprints diverge and
// returns a short context excerpt for the violation detail.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+40, i+40
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("first divergence at byte %d: %q vs %q", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d bytes", len(a), len(b))
}

// auditContained is the panic fence around the sentinel audit itself: a
// crashing sentinel becomes a panic violation in the report it was
// producing, so a bug in the audit code is triaged like any other crash
// instead of taking the soak down.
func auditContained(sc Scenario, res experiment.GoalResult) (rep Report) {
	defer func() {
		if r := recover(); r != nil {
			rep = Report{ScenarioID: sc.ID()}
			rep.add(SentinelPanic, fmt.Sprintf("panic in sentinel audit: %v\n%s", r, sim.CallerStack(1)))
		}
	}()
	if sentinelHook != nil {
		sentinelHook(sc)
	}
	return audit(sc, res)
}

// Run executes the scenario twice — once for the sentinel audit, once more
// to check same-seed determinism — and returns the full outcome. The error
// return is reserved for scenarios that cannot run at all (a spec naming an
// absent target); invariant violations, including contained panics and
// stalls, are in the Report.
func Run(sc Scenario) (*Outcome, error) {
	sc = sc.normalize()
	res, fp1, cv, err := runOnce(sc)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Scenario: sc, Result: res, Ledger: res.Ledger}
	if cv != nil {
		// The run died mid-flight: its result and ledger are partial, so
		// neither the post-run audit nor the determinism double-run apply.
		// The contained fault is the report.
		out.Report = Report{ScenarioID: sc.ID()}
		out.Report.add(cv.Sentinel, cv.Detail)
		return out, nil
	}
	out.Report = auditContained(sc, res)
	if out.Report.Has(SentinelPanic) {
		// The audit itself crashed; a second run would audit nothing new.
		return out, nil
	}

	_, fp2, cv2, err := runOnce(sc)
	if err != nil {
		return nil, err
	}
	if cv2 != nil {
		// First run clean, second crashed: that is itself a determinism
		// violation, with the crash as the diverging observation.
		out.Report.add(SentinelDeterminism, "second run did not complete: "+cv2.Detail)
		return out, nil
	}
	if fp1 != fp2 {
		out.Report.add(SentinelDeterminism, firstDiff(fp1, fp2))
	}
	return out, nil
}
