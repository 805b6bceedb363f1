package experiment

import (
	"testing"
)

// TestSupervisionMidTrialMeetsBar is the acceptance bar of the supervision
// plane on one figure seed: under the mid misbehavior ladder the
// crash-looping recognizer is quarantined, the goal is still met, the
// residual stays under 2% of the supply, and the supervision work is
// visible as energy under the supervise principal.
func TestSupervisionMidTrialMeetsBar(t *testing.T) {
	r := RunSupervisionTrial("mid", 2662)
	if !r.Met {
		t.Fatalf("26-min goal not met under mid misbehavior (ran %v)", r.EndTime)
	}
	if len(r.Quarantined) != 1 || r.Quarantined[0] != "speech" {
		t.Fatalf("quarantined %v, want exactly [speech]", r.Quarantined)
	}
	if frac := r.Residual / Figure20InitialEnergy; frac >= 0.02 {
		t.Fatalf("residual %.0f J = %.1f%% of supply, want < 2%%", r.Residual, frac*100)
	}
	if r.SuperviseEnergy <= 0 {
		t.Fatal("no energy attributed to the supervise principal")
	}
	if r.Restarts == 0 || r.MissedAcks == 0 {
		t.Fatalf("restarts %d, missed acks %d: the ladder did not exercise containment",
			r.Restarts, r.MissedAcks)
	}
	if r.Strikes["crash"] == 0 {
		t.Fatalf("strikes %v, want crash strikes from the crash-looping recognizer", r.Strikes)
	}
	// Quarantine reallocates the departed share: survivors split the budget.
	if r.BudgetShares["speech"] != 0 {
		t.Fatalf("quarantined app still holds budget share %v", r.BudgetShares["speech"])
	}
	total := 0.0
	for _, s := range r.BudgetShares {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("surviving budget shares sum to %v, want 1", total)
	}
}

// TestSupervisionNoneArmIsClean: the overhead arm — supervisor armed over a
// well-behaved workload — must produce no false positives.
func TestSupervisionNoneArmIsClean(t *testing.T) {
	r := RunSupervisionTrial("none", 2600)
	if !r.Met {
		t.Fatalf("26-min goal not met with supervisor armed and no misbehavior (ran %v)", r.EndTime)
	}
	if len(r.Strikes) != 0 || r.Restarts != 0 || len(r.Quarantined) != 0 {
		t.Fatalf("false positives on a healthy workload: strikes %v, restarts %d, quarantined %v",
			r.Strikes, r.Restarts, r.Quarantined)
	}
	if r.MissedAcks != 0 {
		t.Fatalf("missed acks %d on a healthy workload, want 0", r.MissedAcks)
	}
}

// TestMisbehaveSeveritiesResolvable keeps the CLI flag surface and the
// ladder registry in lockstep.
func TestMisbehaveSeveritiesResolvable(t *testing.T) {
	for _, sev := range MisbehaveSeverities {
		if _, ok := MisbehavePlan(sev, 1); !ok {
			t.Fatalf("severity %q in MisbehaveSeverities but not resolvable", sev)
		}
	}
	if _, ok := MisbehavePlan("nope", 1); ok {
		t.Fatal("unknown severity resolved")
	}
}
