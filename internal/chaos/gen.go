package chaos

import (
	"math/rand"
	"time"

	"odyssey/internal/experiment"
	"odyssey/internal/faults"
	"odyssey/internal/workload"
)

// The scenario generator. One seed fixes one scenario: every draw below
// comes from a private generator seeded with it, so a soak is a pure
// function of (base seed, index) and any failure it finds is a file, not a
// moment. The ranges are chosen to stress, not to flatter: goals short
// enough that fault ladders overlap the whole run, supplies that are
// sometimes infeasible (the monitor must fail the goal *cleanly*), and
// misbehavior aimed only at applications that are actually present.

// allApps is the full application roster, in workload priority order.
var allApps = workload.Names

// serverNames lists the remote servers a scenario may crash or slow.
var serverNames = []string{"video-server", "janus-server", "map-server", "distill-server"}

// durBetween draws a uniformly distributed duration in [lo, hi], quantized
// to milliseconds (the fault plane's own minimum holding time).
func durBetween(rng *rand.Rand, lo, hi time.Duration) faults.Dur {
	d := lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
	return faults.Dur(d.Round(time.Millisecond))
}

// Generate composes the scenario for one seed.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed}

	// Horizon: 90 s to 6 min. Short enough that a 200-scenario soak is
	// seconds of wall clock, long enough for several fault cycles and
	// monitor evaluations.
	sc.Goal = durBetween(rng, 90*time.Second, 6*time.Minute)

	// Supply: a mean draw of 12-26 W over the goal. The feasible band sits
	// inside that range, so some scenarios are comfortable, some are tight,
	// and some cannot be met at any fidelity.
	watts := 12 + 14*rng.Float64()
	sc.InitialEnergy = watts * time.Duration(sc.Goal).Seconds()

	// Application mix: each app in with p=0.7; never empty.
	for _, name := range allApps {
		if rng.Float64() < 0.7 {
			sc.Apps = append(sc.Apps, name)
		}
	}
	if len(sc.Apps) == 0 {
		sc.Apps = []string{allApps[rng.Intn(len(allApps))]}
	}

	sc.Bursty = rng.Float64() < 0.25
	sc.SmartBattery = rng.Float64() < 0.5
	if sc.SmartBattery && rng.Float64() < 0.3 {
		sc.Peukert = 1 + 0.3*rng.Float64()
	}
	sc.Supervise = rng.Float64() < 0.6

	if n := rng.Intn(4); n > 0 {
		plan := &faults.PlanSpec{Name: "chaos-faults", Seed: experiment.FaultPlanSeed(seed)}
		for i := 0; i < n; i++ {
			plan.Injectors = append(plan.Injectors, genFaultInjector(rng, sc.SmartBattery))
		}
		sc.Faults = plan
	}
	if n := rng.Intn(3); n > 0 {
		plan := &faults.PlanSpec{Name: "chaos-misbehave", Seed: experiment.MisbehavePlanSeed(seed)}
		for i := 0; i < n; i++ {
			plan.Injectors = append(plan.Injectors, genMisbehaveInjector(rng, sc.Apps))
		}
		sc.Misbehave = plan
	}

	// Offload plane: armed in ~40% of scenarios. These draws come after
	// every pre-existing axis — the generator's draw order is append-only,
	// so the non-offload portion of any seed's scenario is unchanged.
	if rng.Float64() < 0.4 {
		sc.Offload = &experiment.OffloadConfig{
			Servers:    2 + rng.Intn(3),
			Contention: 0.8 * rng.Float64(),
			NoHedge:    rng.Float64() < 0.25,
		}
		// Half the armed scenarios also aim a fault at the pool itself —
		// the crash/overload-under-offload weather the envelope exists for.
		if rng.Float64() < 0.5 {
			if sc.Faults == nil {
				sc.Faults = &faults.PlanSpec{Name: "chaos-faults", Seed: experiment.FaultPlanSeed(seed)}
			}
			sc.Faults.Injectors = append(sc.Faults.Injectors, genPoolInjector(rng))
		}
	}
	return sc.normalize()
}

// genPoolInjector draws one injector aimed symbolically at the offload pool;
// the victim member is resolved by the plan's own RNG at Start.
func genPoolInjector(rng *rand.Rand) faults.InjectorSpec {
	if rng.Float64() < 0.5 {
		return faults.InjectorSpec{
			Kind:     faults.KindServerCrash,
			Target:   faults.TargetAnyPool,
			MeanUp:   durBetween(rng, 30*time.Second, 2*time.Minute),
			MeanDown: durBetween(rng, 2*time.Second, 15*time.Second),
			MaxDown:  faults.Dur(45 * time.Second),
		}
	}
	return faults.InjectorSpec{
		Kind:     faults.KindServerLatency,
		Target:   faults.TargetAnyPool,
		MeanUp:   durBetween(rng, 20*time.Second, 90*time.Second),
		MeanDown: durBetween(rng, 5*time.Second, 20*time.Second),
		Factor:   2 + 6*rng.Float64(),
	}
}

// RandomFaultPlan draws n network/server/battery injectors from rng into a
// named PlanSpec carrying its own seed. The fleet plane composes session
// fault mixes from the same distributions the chaos soak stresses, so a
// fleet anomaly always has a chaos scenario that reproduces its weather.
func RandomFaultPlan(rng *rand.Rand, name string, seed int64, smartBattery bool, n int) *faults.PlanSpec {
	plan := &faults.PlanSpec{Name: name, Seed: seed}
	for i := 0; i < n; i++ {
		plan.Injectors = append(plan.Injectors, genFaultInjector(rng, smartBattery))
	}
	return plan
}

// RandomMisbehavePlan draws n application-misbehavior injectors aimed at the
// given enabled application set.
func RandomMisbehavePlan(rng *rand.Rand, name string, seed int64, apps []string, n int) *faults.PlanSpec {
	plan := &faults.PlanSpec{Name: name, Seed: seed}
	for i := 0; i < n; i++ {
		plan.Injectors = append(plan.Injectors, genMisbehaveInjector(rng, apps))
	}
	return plan
}

// genFaultInjector draws one network/server/battery injector. The
// battery-dropout kind is only eligible when the scenario reads a
// SmartBattery — there is no monitoring circuit to drop out on the bench
// supply.
func genFaultInjector(rng *rand.Rand, smartBattery bool) faults.InjectorSpec {
	kinds := []string{faults.KindLink, faults.KindLoss, faults.KindServerCrash, faults.KindServerLatency}
	if smartBattery {
		kinds = append(kinds, faults.KindBatteryDropout)
	}
	switch kind := kinds[rng.Intn(len(kinds))]; kind {
	case faults.KindLink:
		return faults.InjectorSpec{
			Kind:     kind,
			MeanUp:   durBetween(rng, 20*time.Second, 80*time.Second),
			MeanDown: durBetween(rng, 2*time.Second, 10*time.Second),
			MaxDown:  faults.Dur(30 * time.Second),
		}
	case faults.KindLoss:
		frac := 0.05 + 0.25*rng.Float64()
		return faults.InjectorSpec{Kind: kind, Fraction: frac, Spread: frac / 2}
	case faults.KindServerCrash:
		return faults.InjectorSpec{
			Kind:     kind,
			Target:   serverNames[rng.Intn(len(serverNames))],
			MeanUp:   durBetween(rng, 30*time.Second, 2*time.Minute),
			MeanDown: durBetween(rng, 2*time.Second, 15*time.Second),
			MaxDown:  faults.Dur(45 * time.Second),
		}
	case faults.KindServerLatency:
		return faults.InjectorSpec{
			Kind:     kind,
			Target:   serverNames[rng.Intn(len(serverNames))],
			MeanUp:   durBetween(rng, 20*time.Second, 90*time.Second),
			MeanDown: durBetween(rng, 5*time.Second, 20*time.Second),
			Factor:   2 + 6*rng.Float64(),
		}
	default: // battery-dropout
		return faults.InjectorSpec{
			Kind:     faults.KindBatteryDropout,
			MeanUp:   durBetween(rng, 30*time.Second, 2*time.Minute),
			MeanDown: durBetween(rng, time.Second, 5*time.Second),
		}
	}
}

// genMisbehaveInjector draws one application-misbehavior injector aimed at
// a random application from the scenario's enabled set.
func genMisbehaveInjector(rng *rand.Rand, apps []string) faults.InjectorSpec {
	target := apps[rng.Intn(len(apps))]
	kinds := []string{faults.KindAppCrash, faults.KindAppHang, faults.KindAppThrash, faults.KindAppLie}
	switch kind := kinds[rng.Intn(len(kinds))]; kind {
	case faults.KindAppCrash:
		return faults.InjectorSpec{
			Kind:   kind,
			Target: target,
			MeanUp: durBetween(rng, time.Minute, 4*time.Minute),
		}
	case faults.KindAppHang:
		return faults.InjectorSpec{
			Kind:     kind,
			Target:   target,
			MeanUp:   durBetween(rng, 40*time.Second, 160*time.Second),
			MeanDown: durBetween(rng, 5*time.Second, 20*time.Second),
			MaxDown:  faults.Dur(time.Minute),
		}
	case faults.KindAppThrash:
		return faults.InjectorSpec{
			Kind:     kind,
			Target:   target,
			MeanUp:   durBetween(rng, 40*time.Second, 160*time.Second),
			MeanDown: durBetween(rng, 10*time.Second, 40*time.Second),
			Period:   durBetween(rng, 2*time.Second, 5*time.Second),
		}
	default: // app-lie
		return faults.InjectorSpec{
			Kind:     faults.KindAppLie,
			Target:   target,
			MeanUp:   durBetween(rng, 40*time.Second, 160*time.Second),
			MeanDown: durBetween(rng, 15*time.Second, time.Minute),
			Delta:    1 + rng.Intn(2),
		}
	}
}
