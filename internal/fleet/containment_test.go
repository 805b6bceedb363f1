package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"odyssey/internal/chaos"
	"odyssey/internal/experiment"
	"odyssey/internal/faults"
)

// TestSketchJSONRoundTrip: the sparse wire form reproduces the sketch
// exactly — the property fleet resume leans on for byte-identical merges.
func TestSketchJSONRoundTrip(t *testing.T) {
	s := NewSketch()
	for _, v := range []float64{0, 1, 1, -3.5, 1e-9, 7e11, 42.42, -0.001, 0} {
		s.Observe(v)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got := NewSketch()
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("sketch diverged across the JSON round trip:\n got %+v\nwant %+v", got, s)
	}
	// Out-of-range bucket keys are a decode error, not silent corruption.
	if err := json.Unmarshal([]byte(`{"pos":{"999999":1},"n":1}`), NewSketch()); err == nil {
		t.Fatal("out-of-range bucket index decoded without error")
	}
}

// TestAggregateJSONRoundTrip: a populated aggregate survives the journal's
// JSON round trip with an identical fingerprint.
func TestAggregateJSONRoundTrip(t *testing.T) {
	a := NewAggregate()
	sessions := []Session{
		{Class: "phone", Behavior: "commuter", Goal: 40 * time.Minute, Start: 3 * time.Minute},
		{Class: "tablet", Behavior: "idle", Goal: 2 * time.Hour, Start: 45 * time.Minute},
		{Class: "phone", Behavior: "heavy", Goal: time.Hour, Start: 0},
	}
	outs := []experiment.GoalResult{
		{Met: true, Residual: 120.5, RetryEnergy: 1.5,
			Ledger: experiment.Ledger{Total: 900.25, ByPrincipal: map[string]float64{"video": 500.125, "web": 400.0625}}},
		{Met: false, Residual: 0, Quarantined: []string{"web"}, Restarts: 2,
			Ledger: experiment.Ledger{Total: 4000, ByPrincipal: map[string]float64{"web": 4000}}},
		{},
	}
	contained := []*chaos.Contained{nil, nil, {Sentinel: chaos.SentinelPanic, Detail: "planted"}}
	for i := range sessions {
		a.observe(sessions[i], outs[i], contained[i])
	}
	if a.ContainedPanics != 1 {
		t.Fatalf("contained panics %d, want 1", a.ContainedPanics)
	}
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	got := &Aggregate{}
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if !got.wellFormed() {
		t.Fatal("decoded aggregate is not well-formed")
	}
	if got.Fingerprint() != a.Fingerprint() {
		t.Fatalf("fingerprint diverged across the JSON round trip:\n got %s\nwant %s",
			got.Fingerprint(), a.Fingerprint())
	}
	// A replayed aggregate must also merge exactly like the original.
	m1, m2 := NewAggregate(), NewAggregate()
	m1.Merge(a)
	m2.Merge(got)
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Fatal("merging a replayed aggregate diverges from merging the original")
	}
}

// plantFault returns a fault plan of one planted injector of the given
// kind.
func plantFault(kind string, delay time.Duration) *faults.PlanSpec {
	return &faults.PlanSpec{
		Name: "planted", Seed: 1,
		Injectors: []faults.InjectorSpec{{Kind: kind, MeanUp: faults.Dur(delay)}},
	}
}

// TestFleetContainsPanicsAndStalls: one session panics in a process, one
// livelocks; the fleet run completes, counts both under the containment
// counters, and keeps their partial metrics out of the reduction.
func TestFleetContainsPanicsAndStalls(t *testing.T) {
	mutateSession = func(sess *Session, opt *experiment.GoalOptions) {
		switch sess.Index {
		case 1:
			sess.Faults = plantFault(faults.KindTestProcPanic, time.Second)
		case 2:
			sess.Faults = plantFault(faults.KindTestLivelock, time.Second)
			opt.StallBound = 50_000
		}
	}
	defer func() { mutateSession = nil }()

	var progress strings.Builder
	res, err := Run(RunOptions{
		Population: DefaultPopulation(), Seed: 11, Devices: 4, Shards: 2,
		Progress: &progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Agg
	if a.Sessions != 4 {
		t.Fatalf("sessions %d, want 4", a.Sessions)
	}
	if a.ContainedPanics != 1 || a.ContainedStalls != 1 {
		t.Fatalf("contained panics=%d stalls=%d, want 1 and 1", a.ContainedPanics, a.ContainedStalls)
	}
	if a.Energy.Count != 2 {
		t.Fatalf("energy folded %d sessions, want 2 (contained sessions excluded)", a.Energy.Count)
	}
	if a.SessionMin.Count() != 4 {
		t.Fatalf("session-length sketch folded %d, want all 4", a.SessionMin.Count())
	}
	for _, want := range []string{"contained panic in session 1", "contained stall in session 2"} {
		if !strings.Contains(progress.String(), want) {
			t.Errorf("progress output missing %q:\n%s", want, progress.String())
		}
	}
	card := res.ScorecardString(false)
	if !strings.Contains(card, "contained: panics=1 stalls=1") {
		t.Errorf("scorecard missing containment line:\n%s", card)
	}
}

// TestFleetJournalResumeByteIdentical is the fleet resume gate: a run
// killed after two shards, resumed against its journal, must merge to the
// exact fingerprint and scorecard of an uninterrupted run.
func TestFleetJournalResumeByteIdentical(t *testing.T) {
	old := experiment.Parallelism()
	defer experiment.SetParallelism(old)
	experiment.SetParallelism(1) // serial: shards complete in index order

	base := RunOptions{Population: DefaultPopulation(), Seed: 7, Devices: 12, Shards: 4}
	full, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "run.jsonl")
	interrupted := base
	interrupted.Journal = journal
	polls := 0
	interrupted.Stop = func() bool { polls++; return polls > 2 }
	part, err := Run(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Interrupted || part.RanShards != 2 || part.SkippedShards != 2 {
		t.Fatalf("interrupted run: ran=%d skipped=%d interrupted=%v, want 2/2/true",
			part.RanShards, part.SkippedShards, part.Interrupted)
	}
	if !strings.Contains(part.ScorecardString(false), "PARTIAL: 2 of 4 shards") {
		t.Fatal("partial scorecard missing the PARTIAL marker")
	}

	// A torn final line — the write a crash interrupted — is skipped.
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"shard":2,"agg":{"Sess`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	resumed := base
	resumed.Journal = journal
	resumed.Resume = true
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplayedShards != 2 || res.RanShards != 2 || res.Interrupted {
		t.Fatalf("resumed run: replayed=%d ran=%d interrupted=%v, want 2/2/false",
			res.ReplayedShards, res.RanShards, res.Interrupted)
	}
	if res.Agg.Fingerprint() != full.Agg.Fingerprint() {
		t.Fatalf("resumed aggregate diverges from the uninterrupted run:\n--- resumed\n%s--- full\n%s",
			res.Agg.Fingerprint(), full.Agg.Fingerprint())
	}
	if res.ScorecardString(true) != full.ScorecardString(true) {
		t.Fatal("resumed scorecard is not byte-identical to the uninterrupted run")
	}

	// The resume cut the torn line before appending, so the journal now
	// holds every shard whole and a second resume re-runs nothing.
	res2, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ReplayedShards != 4 || res2.RanShards != 0 {
		t.Fatalf("second resume: replayed=%d ran=%d, want 4/0", res2.ReplayedShards, res2.RanShards)
	}
	if res2.Agg.Fingerprint() != full.Agg.Fingerprint() {
		t.Fatal("fully-replayed aggregate diverges from the uninterrupted run")
	}

	// A journal from a different geometry — another seed, or the same
	// population name with a different model — is refused wholesale:
	// resume warns, starts the journal over, and re-runs every shard.
	longer := base
	longer.Population.Horizon = 4 * base.Population.Horizon
	otherSeed := base
	otherSeed.Seed = 8
	for _, tc := range []struct {
		name string
		opts RunOptions
	}{{"population", longer}, {"seed", otherSeed}} {
		other := tc.opts
		other.Journal = journal
		other.Resume = true
		var progress strings.Builder
		other.Progress = &progress
		res3, err := Run(other)
		if err != nil {
			t.Fatal(err)
		}
		if res3.ReplayedShards != 0 || res3.RanShards != 4 {
			t.Fatalf("mismatched-%s resume: replayed=%d ran=%d, want 0/4", tc.name, res3.ReplayedShards, res3.RanShards)
		}
		if !strings.Contains(progress.String(), "does not match run geometry") {
			t.Fatalf("mismatched-%s resume did not warn", tc.name)
		}
	}
}
