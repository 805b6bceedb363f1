package experiment

import (
	"reflect"
	"testing"
	"time"

	"odyssey/internal/offload"
)

// goalPrincipals runs one goal trial and returns its per-principal energy
// ledger alongside the result.
func goalPrincipals(opt GoalOptions) (GoalResult, map[string]float64) {
	r := RunGoal(opt)
	return r, r.Ledger.ByPrincipal
}

// TestOffloadDisarmedLeavesNoTrace: with GoalOptions.Offload nil the run is
// the legacy code path — no offload principal in the ledger, every offload
// counter zero, and two same-seed runs agree exactly. This is the in-process
// half of the disarmed-equals-legacy gate (scripts/check.sh compares whole
// CLI transcripts byte-for-byte).
func TestOffloadDisarmedLeavesNoTrace(t *testing.T) {
	opt := GoalOptions{Seed: 5, InitialEnergy: Figure20InitialEnergy, Goal: 26 * time.Minute}
	r1, by1 := goalPrincipals(opt)
	r2, by2 := goalPrincipals(opt)
	if _, ok := by1[offload.Principal]; ok {
		t.Fatalf("disarmed run charged the %q principal: %v", offload.Principal, by1)
	}
	if r1.OffloadEnergy != 0 || r1.OffloadLocal != 0 || r1.OffloadRemote != 0 ||
		r1.OffloadHybrid != 0 || r1.OffloadHedges != 0 || r1.OffloadFailovers != 0 ||
		r1.OffloadFallbacks != 0 || r1.BreakerTrips != 0 {
		t.Fatalf("disarmed run has nonzero offload counters: %+v", r1)
	}
	if r1.Met != r2.Met || r1.Residual != r2.Residual || r1.EndTime != r2.EndTime ||
		!reflect.DeepEqual(r1.Adaptations, r2.Adaptations) || !reflect.DeepEqual(by1, by2) {
		t.Fatalf("same-seed disarmed runs diverged:\n %+v\n %+v", r1, r2)
	}
}

// TestOffloadCrashRungDegradesToLocal is the offload plane's acceptance bar
// (the trial `odyssey-sim -figure offload -offload-rung auto:crash` prints):
// under the cost model on the crash rung the goal is still met, and the
// offloads that crashes and flaps strand degrade to local.
func TestOffloadCrashRungDegradesToLocal(t *testing.T) {
	r := RunOffloadTrial("auto", "crash", 2800)
	if !r.Met {
		t.Fatalf("crash-rung goal missed under the cost model: residual %.0f J", r.Residual)
	}
	if r.OffloadFallbacks < 1 {
		t.Fatalf("crash rung degraded no offloads to local: %+v", r)
	}
}

// TestOffloadArmedChargesPrincipalAndConserves: arming the plane makes the
// offload principal a visible, nonzero ledger line, the harvested counter
// equals that line exactly, and placements actually happened.
func TestOffloadArmedChargesPrincipalAndConserves(t *testing.T) {
	opt := GoalOptions{
		Seed: 5, InitialEnergy: Figure20InitialEnergy, Goal: 26 * time.Minute,
		Offload: &OffloadConfig{Servers: 3, Contention: 0.5},
	}
	r, by := goalPrincipals(opt)
	j, ok := by[offload.Principal]
	if !ok || j <= 0 {
		t.Fatalf("armed run has no positive %q ledger line: %v", offload.Principal, by)
	}
	if r.OffloadEnergy != j {
		t.Fatalf("harvested OffloadEnergy %.3f != ledger line %.3f", r.OffloadEnergy, j)
	}
	if r.OffloadRemote+r.OffloadHybrid+r.OffloadFallbacks == 0 {
		t.Fatal("armed run never dispatched remotely")
	}
	// Same-seed replay of the armed run must agree too — the service's
	// private RNG stream is part of the determinism contract.
	r2, by2 := goalPrincipals(opt)
	if r.Residual != r2.Residual || !reflect.DeepEqual(by, by2) ||
		r.OffloadRemote != r2.OffloadRemote || r.OffloadHedges != r2.OffloadHedges {
		t.Fatalf("same-seed armed runs diverged:\n %+v\n %+v", r, r2)
	}
}
