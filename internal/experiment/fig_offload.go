package experiment

import (
	"fmt"
	"time"

	"odyssey/internal/faults"
)

// The offload ladder: the goal-directed scenario with the offload plane
// armed, swept across placement policies (always-local, always-remote, the
// cost model) and escalating environments (idle pool, cross-device
// contention, mid-offload link flaps, a pool crash ladder). The always-local
// and always-remote arms bracket the cost model: the decision layer earns
// its keep only if it beats both brackets where they are weak — remote under
// crashes, local under an idle fast pool.

// OffloadPolicies lists the placement-policy arms of the ladder.
var OffloadPolicies = []string{"local", "remote", "auto"}

// offloadPoolSize is the ladder's server fleet size.
const offloadPoolSize = 3

// offloadGoal mirrors the resilience ladder's hard 26-minute goal: the
// scenario with the least slack for abandoned-work waste.
const offloadGoal = 26 * time.Minute

// offloadPlanSeed decorrelates the ladder's fault timing from the workload
// and offload streams.
func offloadPlanSeed(seed int64) int64 { return seed*2654435761 + 401 }

// offloadLadder is the environment ladder, benign first, and the single
// source of its rung names, pool contention levels and plans. "crash" is
// the acceptance bar: every offload attempt that the weather strands must
// degrade to local, with the goal still met and zero sentinel violations.
var offloadLadder = []rung{
	{name: "none"},
	// An idle link but a busy fleet: other devices keep the pool's
	// background load high, so remote estimates inflate honestly.
	{name: "contended", contention: 1.5},
	// Mid-offload link flaps: outages short enough that most requests span
	// one, forcing failover or degrade-to-local mid-transfer.
	{name: "flap", contention: 0.4, plan: &faults.PlanSpec{Name: "offload-flap", Injectors: []faults.InjectorSpec{
		{Kind: faults.KindLink, MeanUp: faults.Dur(45 * time.Second), MeanDown: faults.Dur(8 * time.Second), MaxDown: faults.Dur(30 * time.Second)},
	}}},
	// The severe rung: pool members crash and spike in turn while the link
	// flaps — the weather the breaker/hedge/failover envelope exists for.
	{name: "crash", contention: 0.4, plan: &faults.PlanSpec{Name: "offload-crash", Injectors: []faults.InjectorSpec{
		{Kind: faults.KindServerCrash, Target: faults.TargetAnyPool, MeanUp: faults.Dur(90 * time.Second), MeanDown: faults.Dur(25 * time.Second), MaxDown: faults.Dur(60 * time.Second)},
		{Kind: faults.KindServerCrash, Target: faults.TargetAnyPool, MeanUp: faults.Dur(2 * time.Minute), MeanDown: faults.Dur(20 * time.Second), MaxDown: faults.Dur(45 * time.Second)},
		{Kind: faults.KindServerLatency, Target: faults.TargetAnyPool, MeanUp: faults.Dur(90 * time.Second), MeanDown: faults.Dur(30 * time.Second), Factor: 6},
		{Kind: faults.KindLink, MeanUp: faults.Dur(90 * time.Second), MeanDown: faults.Dur(10 * time.Second), MaxDown: faults.Dur(30 * time.Second)},
	}}},
}

// OffloadSeverities lists the environment ladder's rung names, benign
// first.
var OffloadSeverities = rungNames(offloadLadder)

// RunOffloadTrial runs the goal-directed scenario with the offload plane
// armed under the named policy and environment severity.
func RunOffloadTrial(policy, severity string, seed int64) GoalResult {
	r, ok := findRung(offloadLadder, severity)
	if !ok {
		//odylint:allow panicfree experiment misconfiguration; caller passes a known severity
		panic(fmt.Sprintf("experiment: unknown offload severity %q", severity))
	}
	return runPlanned(GoalOptions{
		Seed:          seed,
		InitialEnergy: Figure20InitialEnergy,
		Goal:          offloadGoal,
		Offload: &OffloadConfig{
			Servers:    offloadPoolSize,
			Contention: r.contention,
			Policy:     policy,
		},
	}, r.seeded(offloadPlanSeed(seed)), nil)
}

// FigureOffload sweeps the offload ladder: policies x severities, trials
// runs per cell.
func FigureOffload(trials int) *Arms {
	np := len(OffloadPolicies)
	rs := sweep(len(OffloadSeverities)*np, trials, func(a, t int) GoalResult {
		si, pi := a/np, a%np
		return RunOffloadTrial(OffloadPolicies[pi], OffloadSeverities[si], int64(2800+si*53+pi*11+t))
	})
	return summarize(fmt.Sprintf("Offload: %d-minute goal, %d-server pool, policy x environment ladder (supply %.0f J)",
		int(offloadGoal.Minutes()), offloadPoolSize, Figure20InitialEnergy),
		[]string{"Env", "Policy"}, []column{
			residualCol,
			per("Offload (J)", func(r GoalResult) float64 { return r.OffloadEnergy }),
			per("Local", func(r GoalResult) float64 { return float64(r.OffloadLocal) }),
			per("Remote", func(r GoalResult) float64 { return float64(r.OffloadRemote) }),
			per("Hybrid", func(r GoalResult) float64 { return float64(r.OffloadHybrid) }),
			per("Hedges", func(r GoalResult) float64 { return float64(r.OffloadHedges) }),
			per("Failovers", func(r GoalResult) float64 { return float64(r.OffloadFailovers) }),
			per("Fallbacks", func(r GoalResult) float64 { return float64(r.OffloadFallbacks) }),
			per("Trips", func(r GoalResult) float64 { return float64(r.BreakerTrips) }),
		}, rs, func(a int) []string { return []string{OffloadSeverities[a/np], OffloadPolicies[a%np]} })
}
