package integration_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"odyssey/internal/experiment"
)

// faultedRun executes the Fig-19 goal scenario under the mid-severity fault
// plan and renders everything observable — the full event log (fault,
// adaptation, and monitor events interleaved), the retry/fallback counters,
// and the energy outcome in hex floats — to one byte string.
func faultedRun(t *testing.T, seed int64) (string, experiment.GoalResult) {
	t.Helper()
	plan, ok := experiment.ResiliencePlan("mid", seed)
	if !ok {
		t.Fatal("mid fault plan missing")
	}
	r, err := experiment.RunPlanned(experiment.GoalOptions{
		Seed:          seed,
		InitialEnergy: experiment.Figure20InitialEnergy,
		Goal:          26 * time.Minute,
		RecordEvents:  true,
	}, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(r.Events.Text())
	fmt.Fprintf(&b, "end=%v met=%v residual=%x retryJ=%x retryB=%x\n",
		r.EndTime, r.Met, r.Residual, r.RetryEnergy, r.RetryBytes)
	fmt.Fprintf(&b, "retries=%d aborts=%d fallbacks=%d bypasses=%d cache=%d lost=%d missed=%d\n",
		r.RetryAttempts, r.DeadlineAborts, r.Fallbacks, r.Bypasses,
		r.CacheHits, r.ChunksLost, r.MissedSamples)
	keys := make([]string, 0, len(r.FaultCounts))
	for k := range r.FaultCounts {
		keys = append(keys, k)
	}
	for _, k := range sortedCopy(keys) {
		fmt.Fprintf(&b, "fault %s %d\n", k, r.FaultCounts[k])
	}
	return b.String(), r
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestFaultedSameSeedByteIdentical is the fault-plane determinism gate: the
// full goal scenario under the mid plan — and it must actually contain a
// link outage, a retried RPC, and a speech remote-to-local fallback — runs
// byte-identically for the same seed. Fault timing comes from the plan's own
// RNG stream and backoff jitter from the kernel's, so any leak of wall time
// or global randomness into either shows up here as a diff.
func TestFaultedSameSeedByteIdentical(t *testing.T) {
	a, ra := faultedRun(t, 7)
	b, _ := faultedRun(t, 7)
	if a != b {
		t.Fatalf("same seed diverged under faults:\n%s", firstDiff(a, b))
	}
	// Guard against a vacuous pass: the scenario must exercise the three
	// failure paths the acceptance bar names.
	if ra.FaultCounts["link/outage begin"] == 0 {
		t.Fatal("scenario contained no link outage")
	}
	if ra.RetryAttempts == 0 {
		t.Fatal("scenario contained no retried call")
	}
	if ra.Fallbacks == 0 {
		t.Fatal("scenario contained no speech remote-to-local fallback")
	}
	if !strings.Contains(a, "outage begin") {
		t.Fatal("fault events missing from the recorded trace")
	}
}

// TestFaultedDifferentSeedsDiverge keeps the faulted gate sensitive.
func TestFaultedDifferentSeedsDiverge(t *testing.T) {
	a, _ := faultedRun(t, 7)
	b, _ := faultedRun(t, 8)
	if a == b {
		t.Fatal("different seeds produced byte-identical faulted runs")
	}
}
