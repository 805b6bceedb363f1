package fleet

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"odyssey/internal/experiment"
)

// synthOutcome fabricates a session outcome from a seeded generator — the
// aggregate plumbing doesn't care that no simulation ran.
func synthOutcome(rng *rand.Rand) (Session, experiment.GoalResult) {
	classes := []string{"flagship", "midrange", "budget", "aged"}
	behaviors := []string{"commuter", "streamer"}
	sess := Session{
		Class:    classes[rng.Intn(len(classes))],
		Behavior: behaviors[rng.Intn(len(behaviors))],
		Goal:     time.Duration(1+rng.Intn(10)) * time.Minute,
		Start:    time.Duration(rng.Intn(3600)) * time.Second,
	}
	out := experiment.GoalResult{
		Met:         rng.Float64() < 0.9,
		Residual:    rng.Float64() * 5000,
		Ledger:      experiment.Ledger{Total: 1000 + rng.Float64()*4000},
		RetryEnergy: rng.Float64() * 50,
		Quarantined: make([]string, rng.Intn(2)),
		Restarts:    rng.Intn(3),
		Adaptations: map[string]int{"video": rng.Intn(20)},
		FaultEvents: rng.Intn(40),
	}
	out.Ledger.ByPrincipal = map[string]float64{"Idle": rng.Float64() * 900, "X": rng.Float64() * 400, "xanim": rng.Float64() * 700}
	return sess, out
}

func synthAggregate(seed int64, n int) *Aggregate {
	rng := rand.New(rand.NewSource(seed))
	a := NewAggregate()
	for i := 0; i < n; i++ {
		sess, out := synthOutcome(rng)
		a.observe(sess, out, nil)
	}
	return a
}

// TestAggregateMergeCommutative checks that merge(a,b) and merge(b,a)
// produce byte-identical aggregates — scalar counters, sketches, and all
// map entries — via the exhaustive hex fingerprint.
func TestAggregateMergeCommutative(t *testing.T) {
	build := func() (*Aggregate, *Aggregate) {
		return synthAggregate(100, 700), synthAggregate(200, 300)
	}
	a1, b1 := build()
	a1.Merge(b1)
	a2, b2 := build()
	b2.Merge(a2)
	if fp1, fp2 := a1.Fingerprint(), b2.Fingerprint(); fp1 != fp2 {
		t.Fatalf("merge not commutative:\n--- merge(a,b)\n%s--- merge(b,a)\n%s", fp1, fp2)
	}
}

// TestAggregateMergeCounts checks that merging preserves totals exactly.
func TestAggregateMergeCounts(t *testing.T) {
	a := synthAggregate(1, 400)
	b := synthAggregate(2, 600)
	wantSessions := a.Sessions + b.Sessions
	wantMet := a.GoalMet + b.GoalMet
	wantResidN := a.Residual.Count() + b.Residual.Count()
	a.Merge(b)
	if a.Sessions != wantSessions || a.GoalMet != wantMet {
		t.Fatalf("sessions/met %d/%d, want %d/%d", a.Sessions, a.GoalMet, wantSessions, wantMet)
	}
	if a.Residual.Count() != wantResidN {
		t.Fatalf("residual sketch count %d, want %d", a.Residual.Count(), wantResidN)
	}
	if a.GoalMissRate() < 0 || a.GoalMissRate() > 1 {
		t.Fatalf("goal-miss rate %v out of [0,1]", a.GoalMissRate())
	}
}

// TestAggregateShardGroupingFixed checks the runner's actual reduction
// contract: for a FIXED shard geometry, folding shards serially in shard
// order gives the same bytes no matter how shard work was interleaved —
// because each shard's content depends only on its session range. Here we
// simulate two "schedules" by building shard aggregates in different
// orders and merging in fixed order both times.
func TestAggregateShardGroupingFixed(t *testing.T) {
	const shards = 8
	buildShard := func(s int) *Aggregate { return synthAggregate(int64(1000+s), 50+s*13) }

	// Schedule 1: shards built 0..7. Schedule 2: built 7..0. Merge order
	// is fixed (0..7) in both.
	fold := func(order []int) string {
		built := make([]*Aggregate, shards)
		for _, s := range order {
			built[s] = buildShard(s)
		}
		total := NewAggregate()
		for s := 0; s < shards; s++ {
			total.Merge(built[s])
		}
		return total.Fingerprint()
	}
	fwd := fold([]int{0, 1, 2, 3, 4, 5, 6, 7})
	rev := fold([]int{7, 6, 5, 4, 3, 2, 1, 0})
	if fwd != rev {
		t.Fatal("fixed-order merge depends on shard build order")
	}
}

// TestFingerprintCoversState: two aggregates differing in any single
// reduced quantity must fingerprint differently.
func TestFingerprintCoversState(t *testing.T) {
	base := func() *Aggregate { return synthAggregate(5, 100) }
	mutations := []struct {
		name string
		mut  func(*Aggregate)
	}{
		{"sessions", func(a *Aggregate) { a.Sessions++ }},
		{"goalmet", func(a *Aggregate) { a.GoalMet++ }},
		{"quarantines", func(a *Aggregate) { a.Quarantines++ }},
		{"residual", func(a *Aggregate) { a.Residual.Observe(123) }},
		{"energy", func(a *Aggregate) { a.Energy.Observe(1) }},
		{"principal", func(a *Aggregate) { a.ByPrincipal["Idle"].Observe(5) }},
		{"class", func(a *Aggregate) { a.ByClass["aged"].GoalMet++ }},
	}
	ref := base().Fingerprint()
	for _, m := range mutations {
		a := base()
		m.mut(a)
		if a.Fingerprint() == ref {
			t.Errorf("fingerprint blind to %s mutation", m.name)
		}
	}
}

// TestShardRange checks the balanced contiguous partition: disjoint,
// ordered, covering [0, n) exactly.
func TestShardRange(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{1, 10}, {4, 10}, {10, 10}, {64, 1000}, {7, 3000}, {3, 4}} {
		next := 0
		for s := 0; s < tc.k; s++ {
			lo, hi := shardRange(s, tc.k, tc.n)
			if lo != next || hi < lo {
				t.Fatalf("k=%d n=%d shard %d: range [%d,%d) after %d", tc.k, tc.n, s, lo, hi, next)
			}
			next = hi
		}
		if next != tc.n {
			t.Fatalf("k=%d n=%d: covered %d of %d", tc.k, tc.n, next, tc.n)
		}
	}
}

// TestSessionDerivationPure: session i is a pure function of (population,
// seed, i).
func TestSessionDerivationPure(t *testing.T) {
	pop := DefaultPopulation()
	for i := 0; i < 50; i++ {
		s1 := pop.Session(99, i)
		s2 := pop.Session(99, i)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("session %d not pure:\n%+v\n%+v", i, s1, s2)
		}
	}
	if reflect.DeepEqual(pop.Session(99, 0), pop.Session(100, 0)) {
		t.Fatal("different fleet seeds derived identical sessions")
	}
}
