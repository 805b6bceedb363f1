package chaos

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"odyssey/internal/experiment"
	"odyssey/internal/faults"
)

// TestScenarioJSONRoundTripAndID: a generated scenario survives the JSON
// round trip exactly, and its content-addressed ID is stable across
// encode/decode (same bytes, same address).
func TestScenarioJSONRoundTripAndID(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sc := Generate(seed)
		b, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		var got Scenario
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sc) {
			t.Fatalf("seed %d: round trip diverged:\n got %+v\nwant %+v", seed, got, sc)
		}
		if got.ID() != sc.ID() {
			t.Fatalf("seed %d: ID changed across round trip: %s vs %s", seed, got.ID(), sc.ID())
		}
	}
}

// TestGenerateIsDeterministic: one seed, one scenario.
func TestGenerateIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		if a, b := Generate(seed), Generate(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d generated two different scenarios", seed)
		}
	}
}

// TestGenerateRespectsStructure: misbehavior injectors only target enabled
// applications, battery dropouts only appear with a SmartBattery, and the
// application set is never empty.
func TestGenerateRespectsStructure(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		sc := Generate(seed)
		if len(sc.Apps) == 0 {
			t.Fatalf("seed %d: empty application set", seed)
		}
		enabled := map[string]bool{}
		for _, a := range sc.Apps {
			enabled[a] = true
		}
		if sc.Misbehave != nil {
			for _, is := range sc.Misbehave.Injectors {
				if !enabled[is.Target] {
					t.Fatalf("seed %d: misbehavior aimed at disabled app %q", seed, is.Target)
				}
			}
		}
		if sc.Faults != nil && !sc.SmartBattery {
			for _, is := range sc.Faults.Injectors {
				if is.Kind == "battery-dropout" {
					t.Fatalf("seed %d: battery dropout without a SmartBattery", seed)
				}
			}
		}
	}
}

// TestSoakFixedSeed: the acceptance soak — a batch of generated scenarios
// at a fixed base seed, run in parallel on the trial scheduler, must pass
// every sentinel (including the same-seed determinism double-run). 200
// scenarios normally; a reduced batch under -short keeps the race detector
// runs quick.
func TestSoakFixedSeed(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 30
	}
	experiment.SetParallelism(runtime.NumCPU())
	defer experiment.SetParallelism(1)
	sum, err := Soak(SoakOptions{Seed: 1, Count: count})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran != count {
		t.Fatalf("ran %d scenarios, want %d", sum.Ran, count)
	}
	for _, f := range sum.Failures {
		if f.Err != nil {
			t.Errorf("scenario %s failed to run: %v", f.Scenario.ID(), f.Err)
			continue
		}
		t.Errorf("sentinel violation:\n%s", f.Report.String())
	}
}

// TestCorpusReplay: every scenario in the regression corpus replays clean.
// A corpus entry is a scenario that once found a bug; after the fix it must
// stay green forever.
func TestCorpusReplay(t *testing.T) {
	scs, paths, warnings, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("regression corpus has unloadable entries: %v", warnings)
	}
	if len(scs) == 0 {
		t.Fatal("empty regression corpus; expected checked-in scenarios")
	}
	for i, sc := range scs {
		out, err := Run(sc)
		if err != nil {
			t.Errorf("%s: %v", paths[i], err)
			continue
		}
		if !out.Report.OK() {
			t.Errorf("%s:\n%s", paths[i], out.Report.String())
		}
		if want := filepath.Base(paths[i]); want != sc.ID()+".json" {
			t.Errorf("%s: content address drifted (scenario hashes to %s)", paths[i], sc.ID())
		}
	}
}

// TestGenerateCoversOffload: the generator actually exercises the offload
// plane — scenarios with pools, and among those, pool-targeted injectors —
// and every such scenario runs clean through the full sentinel suite
// (which includes the same-seed determinism double-run).
func TestGenerateCoversOffload(t *testing.T) {
	var withPool, withPoolFaults int
	var sample *Scenario
	for seed := int64(0); seed < 60; seed++ {
		sc := Generate(seed)
		if sc.Offload == nil {
			continue
		}
		withPool++
		if sc.Faults != nil {
			for _, is := range sc.Faults.Injectors {
				if is.Target == faults.TargetAnyPool {
					withPoolFaults++
					if sample == nil {
						s := sc
						sample = &s
					}
					break
				}
			}
		}
	}
	if withPool == 0 || withPoolFaults == 0 {
		t.Fatalf("60 seeds generated %d offload scenarios, %d with pool injectors; generator not covering the plane",
			withPool, withPoolFaults)
	}
	out, err := Run(*sample)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.OK() {
		t.Fatalf("offload scenario with pool faults violated sentinels:\n%s", out.Report.String())
	}
}

// TestShrinkerDropsOffloadWithPoolInjectors: clearing a scenario's offload
// plane must also drop its pool-targeted injectors, or the shrunk candidate
// could not materialize (pool:any with no pool is a build error).
func TestShrinkerDropsOffloadWithPoolInjectors(t *testing.T) {
	sc := Generate(2)
	sc.Offload = &experiment.OffloadConfig{Servers: 3}
	sc.Faults = &faults.PlanSpec{Name: "f", Seed: 9, Injectors: []faults.InjectorSpec{
		{Kind: faults.KindLink, MeanUp: faults.Dur(time.Minute), MeanDown: faults.Dur(5 * time.Second)},
		{Kind: faults.KindServerCrash, Target: faults.TargetAnyPool, MeanUp: faults.Dur(time.Minute)},
	}}
	for _, c := range candidates(sc) {
		if c.Offload != nil || c.Faults == nil {
			continue
		}
		for _, is := range c.Faults.Injectors {
			if is.Target == faults.TargetAnyPool {
				t.Fatalf("offload-cleared candidate kept a pool injector: %+v", c.Faults)
			}
		}
	}
}

// TestRunErrorsOnMalformedSpec: a scenario whose plan names an absent
// target is a run error, not a crash and not a silent pass.
func TestRunErrorsOnMalformedSpec(t *testing.T) {
	sc := Generate(4)
	sc.Misbehave = planSpecAimedAt("no-such-app")
	if _, err := Run(sc); err == nil {
		t.Fatal("scenario with an unresolvable target ran without error")
	}
	// Misbehavior aimed at a disabled application must also fail loudly.
	sc2 := Generate(4)
	sc2.Apps = []string{"video"}
	sc2.Misbehave = planSpecAimedAt("web")
	if _, err := Run(sc2); err == nil {
		t.Fatal("misbehavior aimed at a disabled app ran without error")
	}
	// So must the crashing and livelocking scenarios of the containment
	// tests: the bind error wins over the panic or stall their half-bound
	// runs then raise.
	livelock := plantedScenario(5, faults.KindTestLivelock)
	livelock.StallBound = 50_000
	for _, sc := range []Scenario{plantedScenario(3, faults.KindTestProcPanic), plantedScenario(4, faults.KindTestPanic), livelock} {
		sc.Misbehave = planSpecAimedAt("no-such-app")
		if out, err := Run(sc); err == nil {
			t.Errorf("%s: scenario with an unresolvable target ran without error:\n%s", sc.Faults.Name, out.Report.String())
		}
	}
}

// TestShrinkerMinimizesPlantedBug is the mutation test of the sentinel
// suite: plant an energy-accounting bug (via the test-only ledger hook),
// prove the conservation sentinel catches it on an arbitrary chaotic
// scenario, shrink it, and confirm the minimized reproduction is tiny —
// and that the saved file replays the violation through the same path the
// printed one-line command uses.
func TestShrinkerMinimizesPlantedBug(t *testing.T) {
	mutateLedger = func(l *Ledger) {
		// Skim 5 J from the display's ledger entry: byComponent no
		// longer sums to the exact integral, exactly what a lost
		// attribution bug would look like.
		l.ByComponent["display"] -= 5
	}
	defer func() { mutateLedger = nil }()

	sc := Generate(23) // arbitrary; any scenario exhibits an accounting bug
	out, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.Has(SentinelEnergy) {
		t.Fatalf("planted accounting bug not caught:\n%s", out.Report.String())
	}

	sr := Shrink(sc, SentinelEnergy, 0, nil)
	if sr.Accepted == 0 {
		t.Fatal("shrinker accepted no reductions on a bug every scenario exhibits")
	}
	min := sr.Scenario
	if apps := min.AppsOrAll(); len(apps) > 2 {
		t.Errorf("shrunk scenario still has %d apps (%v), want <= 2", len(apps), apps)
	}
	if n := min.InjectorCount(); n > 1 {
		t.Errorf("shrunk scenario still has %d injectors, want <= 1", n)
	}

	// The printed repro path: save the minimized scenario, rebuild the
	// replay command, and run the file it names.
	dir := t.TempDir()
	path, err := min.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	cmd := ReproCommand(path)
	if want := "go run ./cmd/odyssey-chaos -scenario " + path; cmd != want {
		t.Fatalf("repro command %q, want %q", cmd, want)
	}
	loaded, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := Run(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Report.Has(SentinelEnergy) {
		t.Fatalf("saved reproduction no longer trips the sentinel:\n%s", replay.Report.String())
	}

	// Specificity: with the planted bug removed, the very same minimized
	// scenario is clean — the sentinel flagged the bug, not the scenario.
	mutateLedger = nil
	clean, err := Run(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Report.OK() {
		t.Fatalf("minimized scenario fails without the planted bug:\n%s", clean.Report.String())
	}
}

// TestSoakReportsAndShrinksPlantedBug drives the same mutation through the
// full soak path: the soak must report the failure, shrink it, save both
// forms, and hand back a runnable one-line repro command.
func TestSoakReportsAndShrinksPlantedBug(t *testing.T) {
	mutateLedger = func(l *Ledger) { l.ByPrincipal["gremlin"] += 3 }
	defer func() { mutateLedger = nil }()

	var progress strings.Builder
	dir := t.TempDir()
	sum, err := Soak(SoakOptions{Seed: 40, Count: 2, Shrink: true, Dir: dir, Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) != 2 {
		t.Fatalf("%d failures for a bug every scenario exhibits, want 2", len(sum.Failures))
	}
	f := sum.Failures[0]
	if f.Shrunk == nil || f.ShrunkPath == "" {
		t.Fatal("soak did not shrink or save the failure")
	}
	if !strings.HasPrefix(f.Repro, "go run ./cmd/odyssey-chaos -scenario ") {
		t.Fatalf("repro command %q", f.Repro)
	}
	if !strings.Contains(progress.String(), "repro: ") {
		t.Fatal("soak progress output omitted the repro line")
	}
	loaded, err := LoadScenario(f.ShrunkPath)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.Has(SentinelEnergy) {
		t.Fatal("saved shrunk scenario does not reproduce the violation")
	}
}

// planSpecAimedAt builds a one-injector misbehavior plan for tests.
func planSpecAimedAt(app string) *faults.PlanSpec {
	return &faults.PlanSpec{
		Name: "test-misbehave",
		Seed: 1,
		Injectors: []faults.InjectorSpec{
			{Kind: faults.KindAppCrash, Target: app, MeanUp: faults.Dur(time.Minute)},
		},
	}
}
