package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"odyssey/internal/experiment"
	"odyssey/internal/faults"
	"odyssey/internal/power"
	"odyssey/internal/trace"
)

// The invariant sentinels. Each one is an always-on audit of a property the
// codebase otherwise only asserts under the odysseydebug build tag, or
// never asserted at all; together they are the oracle the randomized soak
// tests against. A sentinel returns a detail string per violation — the
// Report collects them — and never panics: in a soak, a violated invariant
// is a result to shrink, not a dead worker.

// Sentinel names, stable identifiers for reports, shrinking, and repro
// commands.
const (
	SentinelEnergy      = "energy-conservation"
	SentinelBudget      = "budget-conservation"
	SentinelClock       = "clock-monotonic"
	SentinelTrace       = "trace-wellformed"
	SentinelResidual    = "goal-residual"
	SentinelDeterminism = "determinism"
	// SentinelPanic reports a panic recovered by the containment fence —
	// from a simulated process, an event callback, an injector, or the
	// sentinel audit itself — carrying the panic value and a deterministic
	// stack of the crash site.
	SentinelPanic = "panic"
	// SentinelStall reports a virtual-time stall: the kernel's livelock
	// detector tripped (sim.ErrStall), or the wall-clock per-scenario
	// deadline backstop abandoned a truly hung worker.
	SentinelStall = "stall"
)

// Violation is one sentinel trip.
type Violation struct {
	Sentinel string `json:"sentinel"`
	Detail   string `json:"detail"`
}

// Report is the audit result for one scenario.
type Report struct {
	ScenarioID string      `json:"scenario_id"`
	Violations []Violation `json:"violations,omitempty"`
}

// OK reports whether every sentinel passed.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Has reports whether the named sentinel tripped.
func (r *Report) Has(sentinel string) bool {
	for _, v := range r.Violations {
		if v.Sentinel == sentinel {
			return true
		}
	}
	return false
}

// First returns the first violation's sentinel name ("" when clean) — the
// property the shrinker preserves.
func (r *Report) First() string {
	if len(r.Violations) == 0 {
		return ""
	}
	return r.Violations[0].Sentinel
}

// String renders the report for soak output.
func (r *Report) String() string {
	if r.OK() {
		return r.ScenarioID + ": all sentinels passed"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d violation(s)", r.ScenarioID, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  [%s] %s", v.Sentinel, v.Detail)
	}
	return b.String()
}

func (r *Report) add(sentinel, detail string) {
	r.Violations = append(r.Violations, Violation{Sentinel: sentinel, Detail: detail})
}

// audit runs every post-run sentinel (determinism is the caller's, since it
// needs a second run).
func audit(sc Scenario, res experiment.GoalResult) Report {
	r := Report{ScenarioID: sc.ID()}
	checkEnergy(&r, res.Ledger)
	checkBudget(&r, res.Ledger)
	checkClock(&r, res)
	checkTrace(&r, res)
	checkResidual(&r, sc, res)
	return r
}

// checkEnergy audits energy conservation: both attribution ledgers must sum
// to the exact integral. This is the always-on face of the odysseydebug
// per-step assertion (internal/power/audit.go).
func checkEnergy(r *Report, led Ledger) {
	if err := power.ConservationCheck(led.Total, led.ByComponent, led.ByPrincipal, led.Elapsed); err != nil {
		r.add(SentinelEnergy, err.Error())
	}
}

// checkBudget audits the priority-weighted budget ledger: shares in [0,1],
// quarantined applications hold zero, survivors sum to one.
func checkBudget(r *Report, led Ledger) {
	if led.BudgetErr != nil {
		r.add(SentinelBudget, led.BudgetErr.Error())
	}
}

// checkClock audits virtual-clock sanity through the event trace: no event
// before t=0, and timestamps never run backwards (the log appends in
// arrival order, so a regression means the clock itself regressed).
func checkClock(r *Report, res experiment.GoalResult) {
	if res.Events == nil {
		return
	}
	prev := time.Duration(0)
	for i, e := range res.Events.Events() {
		if e.Time < 0 {
			r.add(SentinelClock, fmt.Sprintf("event %d (%s/%s) at negative time %v", i, e.Category, e.Subject, e.Time))
			return
		}
		if e.Time < prev {
			r.add(SentinelClock, fmt.Sprintf("event %d (%s/%s) at %v after an event at %v", i, e.Category, e.Subject, e.Time, prev))
			return
		}
		prev = e.Time
	}
}

// checkTrace audits fault-event well-formedness against
// faults.WindowKinds: per subject, every window-opening event is balanced
// by its closing event, and the balance never goes negative (an end before
// any begin). Every injector that opens a window must close it — it fires
// the exit even on Stop — so an unmatched begin means a fault leaked past
// the end of the run. The balance may exceed one — two injectors of the
// same kind aimed at one component nest their windows legitimately — but it
// must return to zero by the end of the run. A log that dropped events
// cannot be audited this way and is skipped.
func checkTrace(r *Report, res experiment.GoalResult) {
	if res.Events == nil || res.Events.Dropped() > 0 {
		return
	}
	balance := make(map[string]int) // subject+begin-message -> open windows
	for _, e := range res.Events.Filter(trace.CatFault, "") {
		for _, w := range faults.WindowKinds {
			switch e.Message {
			case w.Begin:
				balance[e.Subject+"/"+w.Begin]++
			case w.End:
				key := e.Subject + "/" + w.Begin
				balance[key]--
				if balance[key] < 0 {
					r.add(SentinelTrace, fmt.Sprintf("%s: %q without a prior %q", e.Subject, e.Message, w.Begin))
					return
				}
			}
		}
	}
	keys := make([]string, 0, len(balance))
	for key := range balance {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if n := balance[key]; n != 0 {
			r.add(SentinelTrace, fmt.Sprintf("%s: %d window(s) never closed", key, n))
			return
		}
	}
}

// checkResidual audits the goal contract's arithmetic: residual energy
// stays within [0, initial], a met goal means the clock actually reached
// it, an unmet goal means the supply actually drained, and the run never
// outlives RunGoal's horizon.
func checkResidual(r *Report, sc Scenario, res experiment.GoalResult) {
	goal := time.Duration(sc.Goal)
	if res.Residual < 0 {
		r.add(SentinelResidual, fmt.Sprintf("negative residual %.6g J", res.Residual))
	}
	if max := sc.InitialEnergy * (1 + 1e-9); res.Residual > max {
		r.add(SentinelResidual, fmt.Sprintf("residual %.6g J exceeds initial supply %.6g J", res.Residual, sc.InitialEnergy))
	}
	if res.Met && res.EndTime < goal {
		r.add(SentinelResidual, fmt.Sprintf("goal reported met at %v, before the %v goal", res.EndTime, goal))
	}
	if !res.Met && res.Residual > sc.InitialEnergy*1e-3 && res.EndTime >= goal {
		r.add(SentinelResidual, fmt.Sprintf("goal reported unmet at %v >= %v with %.6g J remaining", res.EndTime, goal, res.Residual))
	}
	if horizon := goal + 4*time.Hour; res.EndTime > horizon {
		r.add(SentinelResidual, fmt.Sprintf("run ended at %v, past the %v horizon", res.EndTime, horizon))
	}
}
