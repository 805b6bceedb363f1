package core

import (
	"fmt"
	"math"

	"odyssey/internal/trace"
)

// Priority-weighted energy-budget ledger. The monitor's control loop is
// global (one smoothed supply/demand comparison drives everyone), but the
// goal contract is per-user: the battery must last until the goal. The
// ledger makes the division of the remaining supply explicit — each
// surviving application holds a share proportional to its priority — so
// that when the supervision plane quarantines an application, its share is
// reallocated across the survivors rather than silently stranded, and the
// reallocation is visible in the trace.

// BudgetShares returns each application's fraction of the remaining energy
// budget, weighted by static priority. Excluded registrations (restarting
// or quarantined) hold a zero share; their weight is spread across the
// survivors, which is exactly the goal-preserving reallocation: the global
// supply still funds the same goal, now divided among fewer consumers.
func (em *EnergyMonitor) BudgetShares() map[string]float64 {
	shares := make(map[string]float64, len(em.v.apps))
	total := 0
	for _, r := range em.v.apps {
		if r.Excluded() {
			shares[r.App.Name()] = 0
			continue
		}
		total += r.Priority
	}
	if total == 0 {
		return shares
	}
	for _, r := range em.v.apps {
		if !r.Excluded() {
			shares[r.App.Name()] = float64(r.Priority) / float64(total)
		}
	}
	return shares
}

// AuditBudgetShares verifies the ledger's conservation law after any number
// of ReallocateBudget calls: every share lies in [0,1], excluded
// registrations hold exactly zero, and the surviving shares sum to 1 — the
// whole remaining supply stays allocated, none of it stranded with a
// quarantined application or minted from nowhere. With no surviving
// registrations the sum must be exactly zero. A non-nil error is a budget
// accounting bug; the chaos sentinel suite queries this after every run.
func (em *EnergyMonitor) AuditBudgetShares() error {
	shares := em.BudgetShares()
	sum, survivors := 0.0, 0
	for _, r := range em.v.apps {
		s := shares[r.App.Name()]
		if s < 0 || s > 1 {
			return fmt.Errorf("core: budget share %q = %g outside [0,1]", r.App.Name(), s)
		}
		if r.Excluded() {
			if s != 0 { //odylint:allow floateq quarantine assigns a literal zero share; any nonzero bit pattern is a bug
				return fmt.Errorf("core: excluded application %q holds budget share %g", r.App.Name(), s)
			}
			continue
		}
		survivors++
		sum += s
	}
	if survivors == 0 {
		if sum != 0 { //odylint:allow floateq the sum of literal zeros must be exactly zero
			return fmt.Errorf("core: no surviving applications but budget shares sum to %g", sum)
		}
		return nil
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("core: surviving budget shares sum to %.12g, want 1", sum)
	}
	return nil
}

// ReallocateBudget redistributes a departed application's budget share
// across the surviving registrations by priority. The supervision plane
// calls it when it quarantines an application: the survivors' new shares
// are logged, the upgrade rate cap is reset, and an evaluation runs
// immediately, so the freed headroom is claimed as fidelity for the
// survivors instead of leaking away as residual at the goal.
func (em *EnergyMonitor) ReallocateBudget(departed string) {
	shares := em.BudgetShares()
	if em.Events != nil {
		em.Events.Add(trace.CatSupervise, departed, "budget reallocated", shares[departed])
		for _, r := range em.v.byPriority() {
			if r.Excluded() {
				continue
			}
			em.Events.Add(trace.CatSupervise, r.App.Name(), "budget share", shares[r.App.Name()])
		}
	}
	em.lastUpgrade = -1 << 60
	if em.evaluator.Running() {
		em.evaluate()
	}
}
