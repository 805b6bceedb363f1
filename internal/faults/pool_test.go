package faults_test

import (
	"reflect"
	"testing"
	"time"

	"odyssey/internal/faults"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
)

// poolTargets extends the stub binder with an offload pool, the way the
// chaos binder does when Rig.Pool is armed.
type poolTargets struct {
	*stubTargets
	pool []*netsim.Server
}

func (t *poolTargets) PoolServers() []*netsim.Server { return t.pool }

func newPoolRig(seed int64, n int) (*sim.Kernel, *poolTargets) {
	k, tg := newSpecRig(seed)
	pt := &poolTargets{stubTargets: tg}
	for i := 0; i < n; i++ {
		pt.pool = append(pt.pool, netsim.NewServer(k, "pool-"+string(rune('a'+i))))
	}
	return k, pt
}

func anyPoolSpec() faults.PlanSpec {
	return faults.PlanSpec{
		Name: "pool-chaos",
		Seed: 4242,
		Injectors: []faults.InjectorSpec{
			{Kind: faults.KindServerCrash, Target: faults.TargetAnyPool,
				MeanUp: faults.Dur(time.Minute), MeanDown: faults.Dur(10 * time.Second), MaxDown: faults.Dur(30 * time.Second)},
			{Kind: faults.KindServerLatency, Target: faults.TargetAnyPool,
				MeanUp: faults.Dur(50 * time.Second), MeanDown: faults.Dur(15 * time.Second), Factor: 5},
		},
	}
}

// TestAnyPoolSpecRoundTrip: the symbolic "pool:any" target survives
// binding and JSON: no victim is pinned before Start, each injector's
// victim is a pool member, and the PlanSpec round-trips unchanged.
func TestAnyPoolSpecRoundTrip(t *testing.T) {
	k, tg := newPoolRig(1, 3)
	checkSpecWiring(t, anyPoolSpec(), k, tg)
}

// TestAnyPoolVictimDeterminism: the victim draw comes from the plan's
// seeded RNG, so the same (spec, pool) picks the same member every run,
// and the schedule it then drives is identical event-for-event.
func TestAnyPoolVictimDeterminism(t *testing.T) {
	run := func() map[string]int {
		k, tg := newPoolRig(9, 3)
		pl, err := anyPoolSpec().Plan(k, tg)
		if err != nil {
			t.Fatalf("materialize: %v", err)
		}
		pl.Start()
		k.At(5*time.Minute, func() { k.Stop() })
		k.Run(0)
		pl.Stop()
		_, counts := pl.Counts()
		return counts
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed drew different victims/schedules:\n got %v\nwant %v", second, first)
	}
	// The counts are keyed by post-draw injector names, so a concrete
	// victim must appear — and it must be a pool member, not srv-a.
	sawPool, sawSymbolic := false, false
	for name := range first {
		if name == "server:srv-a" || name == "latency:srv-a" {
			t.Fatalf("victim drawn outside the pool: %q", name)
		}
		if name == "server:"+faults.TargetAnyPool || name == "latency:"+faults.TargetAnyPool {
			sawSymbolic = true
		}
		if len(name) > 0 {
			sawPool = true
		}
	}
	if !sawPool {
		t.Fatal("no fault events in 5 minutes; pool injectors never armed")
	}
	if sawSymbolic {
		t.Fatalf("events logged under the symbolic name; victim never drawn: %v", first)
	}
}

// TestAnyPoolBuildErrors: a "pool:any" spec against a binder with no pool
// (or an empty one) is a materialization error, never a panic.
func TestAnyPoolBuildErrors(t *testing.T) {
	k, bare := newSpecRig(3)
	kEmpty, empty := newPoolRig(4, 0)
	for _, kind := range []string{faults.KindServerCrash, faults.KindServerLatency} {
		spec := faults.PlanSpec{Name: "pool", Seed: 1,
			Injectors: []faults.InjectorSpec{{Kind: kind, Target: faults.TargetAnyPool}}}
		if _, err := spec.Plan(k, bare); err == nil {
			t.Errorf("%s built against a pool-less binder; want error", kind)
		}
		if _, err := spec.Plan(kEmpty, empty); err == nil {
			t.Errorf("%s built against an empty pool; want error", kind)
		}
	}
}
