package experiment

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/faults"
	"odyssey/internal/smartbattery"
)

// The offload ladder: the goal-directed scenario with the offload plane
// armed, swept across placement policies (always-local, always-remote, the
// cost model) and escalating environments (idle pool, cross-device
// contention, mid-offload link flaps, a pool crash ladder). The always-local
// and always-remote arms bracket the cost model: the decision layer earns
// its keep only if it beats both brackets where they are weak — remote under
// crashes, local under an idle fast pool.

// OffloadSeverities lists the environment rungs, benign first. "crash" is
// the acceptance bar: every offload attempt that the weather strands must
// degrade to local, with the goal still met and zero sentinel violations.
var OffloadSeverities = []string{"none", "contended", "flap", "crash"}

// OffloadPolicies lists the placement-policy arms of the ladder.
var OffloadPolicies = []string{"local", "remote", "auto"}

// offloadPoolSize is the ladder's server fleet size.
const offloadPoolSize = 3

// offloadGoal mirrors the resilience ladder's hard 26-minute goal: the
// scenario with the least slack for abandoned-work waste.
const offloadGoal = 26 * time.Minute

// offloadRung couples one severity name to its pool contention level and
// fault plan.
type offloadRung struct {
	contention float64
	plan       PlanBuilder
}

// offloadPlanSeed decorrelates the ladder's fault timing from the workload
// and offload streams.
func offloadPlanSeed(seed int64) int64 { return seed*2654435761 + 401 }

// offloadRungByName returns the environment rung for a severity name.
func offloadRungByName(name string) (offloadRung, bool) {
	switch name {
	case "none":
		return offloadRung{contention: 0, plan: nil}, true
	case "contended":
		// An idle link but a busy fleet: other devices keep the pool's
		// background load high, so remote estimates inflate honestly.
		return offloadRung{contention: 1.5, plan: nil}, true
	case "flap":
		// Mid-offload link flaps: outages short enough that most requests
		// span one, forcing failover or degrade-to-local mid-transfer.
		return offloadRung{contention: 0.4, plan: func(rig *env.Rig, _ *smartbattery.Battery, seed int64) *faults.Plan {
			pl := faults.NewPlan(rig.K, "offload-flap", offloadPlanSeed(seed))
			pl.Add(&faults.LinkOutage{Net: rig.Net, MeanUp: 45 * time.Second, MeanDown: 8 * time.Second, MaxDown: 30 * time.Second})
			return pl
		}}, true
	case "crash":
		// The severe rung: pool members crash and spike in turn while the
		// link flaps — the weather the breaker/hedge/failover envelope
		// exists for.
		return offloadRung{contention: 0.4, plan: func(rig *env.Rig, _ *smartbattery.Battery, seed int64) *faults.Plan {
			pl := faults.NewPlan(rig.K, "offload-crash", offloadPlanSeed(seed))
			pool := rig.Pool.Servers()
			pl.Add(
				&faults.ServerCrash{Pool: pool, MeanUp: 90 * time.Second, MeanDown: 25 * time.Second, MaxDown: 60 * time.Second},
				&faults.ServerCrash{Pool: pool, MeanUp: 2 * time.Minute, MeanDown: 20 * time.Second, MaxDown: 45 * time.Second},
				&faults.ServerLatency{Pool: pool, MeanCalm: 90 * time.Second, MeanSpike: 30 * time.Second, Factor: 6},
				&faults.LinkOutage{Net: rig.Net, MeanUp: 90 * time.Second, MeanDown: 10 * time.Second, MaxDown: 30 * time.Second},
			)
			return pl
		}}, true
	}
	return offloadRung{}, false
}

// RunOffloadTrial runs the goal-directed scenario with the offload plane
// armed under the named policy and environment severity.
func RunOffloadTrial(policy, severity string, seed int64) GoalResult {
	rung, ok := offloadRungByName(severity)
	if !ok {
		//odylint:allow panicfree experiment misconfiguration; caller passes a known severity
		panic(fmt.Sprintf("experiment: unknown offload severity %q", severity))
	}
	return RunGoal(GoalOptions{
		Seed:          seed,
		InitialEnergy: Figure20InitialEnergy,
		Goal:          offloadGoal,
		Faults:        rung.plan,
		Offload: &OffloadConfig{
			Servers:    offloadPoolSize,
			Contention: rung.contention,
			Policy:     policy,
		},
	})
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
