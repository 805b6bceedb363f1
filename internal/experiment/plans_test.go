package experiment

import (
	"encoding/json"
	"reflect"
	"testing"

	"odyssey/internal/app/env"
	"odyssey/internal/faults"
	"odyssey/internal/offload"
	"odyssey/internal/workload"
)

// TestLadderRungsBind walks every rung of the resilience, supervision and
// offload ladders. Each rung's plan must carry the expected name, injector
// count and stream seed, survive a JSON round trip unchanged, and bind
// through BindRig to a fresh rig without error: offload rungs against a
// 3-server pool, misbehavior rungs against all four applications. A
// misspelled target or a kind the rig cannot serve fails here, not as a
// silently clean trial.
func TestLadderRungsBind(t *testing.T) {
	type want struct {
		name      string // plan name; "" for a clean rung
		injectors int
	}
	const seed = 2562
	ladders := []struct {
		ladder    string
		rungs     []rung
		planSeed  int64
		misbehave bool
		pool      bool
		want      map[string]want
	}{
		{"resilience", resilienceLadder, FaultPlanSeed(seed), false, false, map[string]want{
			"none": {}, "mild": {"mild", 2}, "mid": {"mid", 4}, "severe": {"severe", 5},
		}},
		{"supervision", misbehaveLadder, MisbehavePlanSeed(seed), true, false, map[string]want{
			"none": {}, "mild": {"mild-misbehave", 2}, "mid": {"mid-misbehave", 4}, "severe": {"severe-misbehave", 4},
		}},
		{"offload", offloadLadder, offloadPlanSeed(seed), false, true, map[string]want{
			"none": {}, "contended": {}, "flap": {"offload-flap", 1}, "crash": {"offload-crash", 4},
		}},
	}
	for _, l := range ladders {
		if len(l.rungs) != len(l.want) {
			t.Errorf("%s ladder has %d rungs, want %d", l.ladder, len(l.rungs), len(l.want))
		}
		for _, r := range l.rungs {
			w, ok := l.want[r.name]
			if !ok {
				t.Errorf("%s ladder: unexpected rung %q", l.ladder, r.name)
				continue
			}
			spec := r.seeded(l.planSeed)
			if w.name == "" {
				if spec != nil {
					t.Errorf("%s/%s: clean rung carries plan %q", l.ladder, r.name, spec.Name)
				}
				continue
			}
			if spec == nil {
				t.Errorf("%s/%s: no plan", l.ladder, r.name)
				continue
			}
			if spec.Name != w.name || len(spec.Injectors) != w.injectors || spec.Seed != l.planSeed {
				t.Errorf("%s/%s: plan %q with %d injectors, seed %d; want %q with %d, seed %d",
					l.ladder, r.name, spec.Name, len(spec.Injectors), spec.Seed, w.name, w.injectors, l.planSeed)
			}

			b, err := json.Marshal(spec)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", l.ladder, r.name, err)
			}
			var back faults.PlanSpec
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("%s/%s: unmarshal: %v", l.ladder, r.name, err)
			}
			if !reflect.DeepEqual(back, *spec) {
				t.Errorf("%s/%s: JSON round trip changed the plan:\n got %+v\nwant %+v", l.ladder, r.name, back, *spec)
			}

			rig := env.NewRig(seed, 1)
			if l.pool {
				rig.EnableOffload(offloadPoolSize, r.contention, seed, offload.Config{})
			}
			tg := BindRig(rig, nil, nil)
			if l.misbehave {
				tg = BindRig(rig, nil, workload.NewApps(rig))
			}
			pl, bindErr := spec.Plan(rig.K, tg)
			if bindErr != nil || pl == nil {
				t.Errorf("%s/%s: binding to a fresh rig failed: %v", l.ladder, r.name, bindErr)
			} else if pl.Name != w.name {
				t.Errorf("%s/%s: bound plan named %q, want %q", l.ladder, r.name, pl.Name, w.name)
			}
			rig.K.Shutdown()
		}
	}
}
