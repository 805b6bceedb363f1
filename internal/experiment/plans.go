package experiment

import (
	"odyssey/internal/app/env"
	"odyssey/internal/core"
	"odyssey/internal/faults"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/supervise"
	"odyssey/internal/workload"
)

// Fault plans. Every plan a run arms is a faults.PlanSpec that RunPlanned
// binds to the run's live rig: the chaos and fleet planes draw their specs
// at random, and the resilience, supervision and offload ladders keep
// theirs as tables of rungs whose trials fill in the seed.

// FaultPlanSeed and MisbehavePlanSeed derive a run's fault and misbehavior
// plan seeds from its workload seed, so plan timing draws from streams of
// its own and never perturbs the workload's kernel stream or each other.
func FaultPlanSeed(seed int64) int64     { return seed*2654435761 + 97 }
func MisbehavePlanSeed(seed int64) int64 { return seed*2654435761 + 211 }

// rung is one step of a fault ladder: its severity name, the plan its
// trials bind (nil on a clean rung), and on the offload ladder the pool's
// cross-device contention.
type rung struct {
	name       string
	contention float64
	plan       *faults.PlanSpec
}

// rungNames lists a ladder's severity names, in ladder order.
func rungNames(ladder []rung) []string {
	names := make([]string, len(ladder))
	for i, r := range ladder {
		names[i] = r.name
	}
	return names
}

// findRung looks a severity name up in a ladder.
func findRung(ladder []rung, name string) (rung, bool) {
	for _, r := range ladder {
		if r.name == name {
			return r, true
		}
	}
	return rung{}, false
}

// seeded returns the rung's plan carrying one trial's plan seed, or nil on
// a clean rung.
func (r rung) seeded(seed int64) *faults.PlanSpec {
	if r.plan == nil {
		return nil
	}
	sp := *r.plan
	sp.Seed = seed
	return &sp
}

// runPlanned is RunPlanned for the ladders. Their tables are fixed, so a
// plan that fails to bind is a broken table, not a bad scenario.
func runPlanned(opt GoalOptions, fault, misbehave *faults.PlanSpec) GoalResult {
	res, err := RunPlanned(opt, fault, misbehave)
	if err != nil {
		//odylint:allow panicfree experiment misconfiguration; every ladder rung is bound by TestLadderRungsBind
		panic(err)
	}
	return res
}

// rigTargets binds injector specs to one trial's live rig. The faults plan
// resolves servers, the network, and the battery; the misbehave plan
// resolves applications (gated on the scenario's enabled subset, so a spec
// aimed at a disabled application is a binding error, not a silent
// no-op).
type rigTargets struct {
	rig  *env.Rig
	bat  *smartbattery.Battery
	apps *workload.Apps
}

// BindRig returns a faults.Targets binder over one live rig, its battery
// (nil on a bench supply), and its application set (nil when only
// network/server/battery injectors will be bound).
func BindRig(rig *env.Rig, bat *smartbattery.Battery, apps *workload.Apps) faults.Targets {
	return &rigTargets{rig: rig, bat: bat, apps: apps}
}

func (t *rigTargets) Network() *netsim.Network { return t.rig.Net }

func (t *rigTargets) Server(name string) (*netsim.Server, bool) {
	for _, s := range []*netsim.Server{t.rig.VideoServer, t.rig.JanusServer, t.rig.MapServer, t.rig.WebServer} {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range t.PoolServers() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// PoolServers implements faults.PoolTargets over the rig's offload pool
// (empty when the plane is disarmed, which Build reports as a spec error).
func (t *rigTargets) PoolServers() []*netsim.Server {
	if t.rig.Pool == nil {
		return nil
	}
	return t.rig.Pool.Servers()
}

func (t *rigTargets) Battery() *smartbattery.Battery { return t.bat }

func (t *rigTargets) App(name string) (core.Adaptive, *supervise.AppHealth, bool) {
	if t.apps == nil || !t.apps.Enabled(name) {
		return nil, nil, false
	}
	app := t.apps.ByName(name)
	health := t.apps.Health(name)
	if app == nil || health == nil {
		return nil, nil, false
	}
	return app, health, true
}

// RunPlanned runs opt with the fault and misbehavior specs (either may be
// nil) bound to its live rig. A spec that fails to bind — an unknown
// target, a missing battery — is dropped, the run goes on without it, and
// its error comes back with the result. The error also wins over a panic
// or stall of the half-bound run, which is then discarded: the run was
// malformed, so what it did next is no finding.
func RunPlanned(opt GoalOptions, fault, misbehave *faults.PlanSpec) (res GoalResult, err error) {
	defer func() {
		if err != nil {
			recover()
		}
	}()
	plan := func(spec *faults.PlanSpec, k *sim.Kernel, tg faults.Targets) *faults.Plan {
		pl, bindErr := spec.Plan(k, tg)
		if bindErr != nil {
			err = bindErr
		}
		return pl
	}
	if fault != nil {
		opt.Faults = func(rig *env.Rig, bat *smartbattery.Battery, seed int64) *faults.Plan {
			return plan(fault, rig.K, BindRig(rig, bat, nil))
		}
	}
	if misbehave != nil {
		opt.Misbehave = func(apps *workload.Apps, seed int64) *faults.Plan {
			return plan(misbehave, apps.Rig.K, BindRig(apps.Rig, nil, apps))
		}
	}
	res = RunGoal(opt)
	return res, err
}
