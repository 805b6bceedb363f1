package integration_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"odyssey/internal/experiment"
	"odyssey/internal/trace"
)

// supervisedRun executes the goal scenario with the supervisor armed under
// the mid misbehavior ladder and renders everything observable to one byte
// string: the full event log (supervision events interleaved with fault,
// adaptation, and monitor events) plus the supervision counters in hex
// floats.
func supervisedRun(t *testing.T, seed int64) (string, experiment.GoalResult) {
	t.Helper()
	plan, ok := experiment.MisbehavePlan("mid", seed)
	if !ok {
		t.Fatal("mid misbehavior ladder missing")
	}
	r, err := experiment.RunPlanned(experiment.GoalOptions{
		Seed:          seed,
		InitialEnergy: experiment.Figure20InitialEnergy,
		Goal:          26 * time.Minute,
		Supervise:     true,
		RecordEvents:  true,
	}, nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(r.Events.Text())
	fmt.Fprintf(&b, "end=%v met=%v residual=%x supJ=%x\n",
		r.EndTime, r.Met, r.Residual, r.SuperviseEnergy)
	fmt.Fprintf(&b, "acks=%d restarts=%d quarantined=%v\n",
		r.MissedAcks, r.Restarts, r.Quarantined)
	for _, k := range sortedCopy(mapKeys(r.Strikes)) {
		fmt.Fprintf(&b, "strike %s %d\n", k, r.Strikes[k])
	}
	return b.String(), r
}

func mapKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSupervisedSameSeedByteIdentical is the supervision-plane determinism
// gate: the armed goal scenario under the mid ladder — which must actually
// contain a missed ack, a restart, and a quarantine — runs byte-identically
// for the same seed. The supervisor's backoff jitter comes from its own
// seeded stream and misbehavior timing from the plan's, so any leak of wall
// time or global randomness into either shows up here as a diff.
func TestSupervisedSameSeedByteIdentical(t *testing.T) {
	a, ra := supervisedRun(t, 2662)
	b, _ := supervisedRun(t, 2662)
	if a != b {
		t.Fatalf("same seed diverged under supervision:\n%s", firstDiff(a, b))
	}
	// Guard against a vacuous pass: the ladder must exercise the watchdog,
	// the restart path, and quarantine.
	if ra.MissedAcks == 0 {
		t.Fatal("scenario contained no missed ack")
	}
	if ra.Restarts == 0 {
		t.Fatal("scenario contained no restart")
	}
	if len(ra.Quarantined) == 0 {
		t.Fatal("scenario contained no quarantine")
	}
	if !strings.Contains(a, "quarantined") {
		t.Fatal("supervision events missing from the recorded trace")
	}
}

// TestSupervisedDifferentSeedsDiverge keeps the supervised gate sensitive.
func TestSupervisedDifferentSeedsDiverge(t *testing.T) {
	a, _ := supervisedRun(t, 2662)
	b, _ := supervisedRun(t, 2663)
	if a == b {
		t.Fatal("different seeds produced byte-identical supervised runs")
	}
}

// TestDisarmedRunsCarryNoSupervisionArtifacts: with the supervisor disarmed
// (the default), the goal scenario must carry zero trace of the supervision
// plane — no supervise-principal energy, no counters, no CatSupervise
// events — which is the observable face of the byte-identical guarantee.
func TestDisarmedRunsCarryNoSupervisionArtifacts(t *testing.T) {
	r := experiment.RunGoal(experiment.GoalOptions{
		Seed:          7,
		InitialEnergy: experiment.Figure20InitialEnergy,
		Goal:          26 * time.Minute,
		RecordEvents:  true,
	})
	if r.SuperviseEnergy != 0 {
		t.Fatalf("disarmed run charged %v J to the supervise principal", r.SuperviseEnergy)
	}
	if r.MissedAcks != 0 || r.Restarts != 0 || len(r.Quarantined) != 0 || len(r.Strikes) != 0 {
		t.Fatalf("disarmed run has supervision counters: acks=%d restarts=%d quar=%v strikes=%v",
			r.MissedAcks, r.Restarts, r.Quarantined, r.Strikes)
	}
	if n := len(r.Events.Filter(trace.CatSupervise, "")); n != 0 {
		t.Fatalf("disarmed run traced %d supervision events", n)
	}
}
