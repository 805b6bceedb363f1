package fleet

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"odyssey/internal/chaos"
	"odyssey/internal/experiment"
	"odyssey/internal/journal"
)

// The fleet runner. Sessions are sharded into a FIXED number of contiguous
// index ranges — fixed meaning independent of the worker count — and each
// shard folds its sessions into a private Aggregate in index order; shard
// aggregates then merge in shard-index order. Workers only decide *when* a
// shard's reduction happens, never its content or its place in the final
// merge, so the scorecard is byte-identical at -parallel 1 and -parallel
// 64. Changing the shard count changes the float accumulation geometry
// (like regrouping any float sum), so DefaultShards is part of the replay
// contract.

// DefaultShards is the fixed shard count of the reduction geometry.
const DefaultShards = 64

// RunOptions parameterizes one fleet run.
type RunOptions struct {
	Population Population
	Seed       int64
	Devices    int // device-sessions to run (session-count mode)
	Shards     int // 0 = DefaultShards; clamped to Devices

	// Progress, if non-nil, receives one line per completed shard. It is
	// observability only — never part of the scorecard — so it may carry
	// wall-clock rates. Writes are serialized by the caller's writer.
	Progress io.Writer

	// Journal, when non-empty, is the crash-safe shard journal: a header
	// line pinning the run geometry plus one fsync'd JSON line per
	// completed shard aggregate (see journal.go).
	Journal string
	// Resume replays Journal first: shards already journaled under this
	// exact geometry merge verbatim instead of re-running. Shard
	// aggregates round-trip exactly (integer sketches, shortest-form
	// floats), so a resumed scorecard is byte-identical to an
	// uninterrupted one.
	Resume bool
	// Stop, when non-nil, is polled before each shard starts; once it
	// returns true, unstarted shards are skipped and the result marked
	// interrupted. In-flight shards finish and journal normally.
	Stop func() bool
}

// Result is a finished fleet run: the merged reduction plus the geometry
// that produced it.
type Result struct {
	Opts RunOptions
	Agg  *Aggregate
	// RanShards/ReplayedShards/SkippedShards decompose the shard geometry
	// for this invocation. Interrupted reports Stop tripped before every
	// shard reduced, leaving Agg partial; resuming against the same
	// journal completes it.
	RanShards      int
	ReplayedShards int
	SkippedShards  int
	Interrupted    bool
}

// shardRange returns the half-open session range of shard s among n
// sessions split into k balanced contiguous shards.
func shardRange(s, k, n int) (int, int) {
	return s * n / k, (s + 1) * n / k
}

// Run executes the fleet: derives each session from (population, seed,
// index), runs it on a private rig, and reduces everything into one
// Aggregate. Memory is O(shards + workers), independent of Devices. The
// error is non-nil only if a derived fault plan failed to materialize —
// a population-model bug, not a device outcome.
func Run(opts RunOptions) (*Result, error) {
	n := opts.Devices
	if n < 0 {
		n = 0
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > n && n > 0 {
		shards = n
	}
	if n == 0 {
		return &Result{Opts: opts, Agg: NewAggregate()}, nil
	}

	replayed := make(map[int]*Aggregate)
	var jw *journal.Writer
	if opts.Journal != "" {
		pop, err := json.Marshal(opts.Population)
		if err != nil {
			return nil, err
		}
		hdr := journalHeader{Journal: "fleet-shards/v1", Population: opts.Population.Name,
			Digest: fmt.Sprintf("%x", sha256.Sum256(pop)), Seed: opts.Seed, Devices: n, Shards: shards}
		// The last entry for a shard wins.
		var warnings []string
		jw, warnings, err = journal.Open(opts.Journal, hdr, opts.Resume, func(line []byte) error {
			e, err := decodeShard(line, shards)
			if err == nil {
				replayed[e.Shard] = e.Agg
			}
			return err
		})
		if opts.Progress != nil {
			for _, w := range warnings {
				_, _ = fmt.Fprintln(opts.Progress, w)
			}
		}
		if err != nil {
			return nil, err
		}
		// Each shard entry is fsync'd as it lands; nothing is left to flush.
		defer func() { _ = jw.Close() }()
	}

	aggs := make([]*Aggregate, shards)
	errs := make([]error, shards)
	experiment.RunTasks(shards, func(s int) {
		if replayed[s] != nil {
			return
		}
		if opts.Stop != nil && opts.Stop() {
			return
		}
		agg := NewAggregate()
		lo, hi := shardRange(s, shards, n)
		for i := lo; i < hi; i++ {
			sess := opts.Population.Session(opts.Seed, i)
			res, cv, err := runSession(sess)
			if err != nil {
				errs[s] = fmt.Errorf("fleet: session %d (seed %d): %w", i, sess.Seed, err)
				return
			}
			if cv != nil && opts.Progress != nil {
				_, _ = fmt.Fprintf(opts.Progress, "contained %s in session %d (seed %d): %s\n", cv.Sentinel, i, sess.Seed, cv.Detail)
			}
			agg.observe(sess, res, cv)
		}
		// Journal before publishing: a shard is either durably journaled
		// and counted, or neither.
		if jw != nil {
			if err := jw.Append(shardEntry{Shard: s, Agg: agg}); err != nil {
				errs[s] = err
				return
			}
		}
		aggs[s] = agg
		if opts.Progress != nil {
			_, _ = fmt.Fprintf(opts.Progress, "shard %3d/%d done: sessions %d-%d\n", s+1, shards, lo, hi-1)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Opts: opts, Agg: NewAggregate()}
	for s := 0; s < shards; s++ {
		switch {
		case replayed[s] != nil:
			res.ReplayedShards++
			res.Agg.Merge(replayed[s])
		case aggs[s] != nil:
			res.RanShards++
			res.Agg.Merge(aggs[s])
		default:
			res.SkippedShards++
			res.Interrupted = true
		}
	}
	return res, nil
}

// mutateSession, when non-nil, rewrites a session and the GoalOptions
// built from it before the run starts. It exists solely for containment
// self-tests that plant crashing or livelocking injectors into an otherwise
// healthy fleet. Never set outside tests.
var mutateSession func(sess *Session, opt *experiment.GoalOptions)

// runSession executes one derived session through the goal-directed
// experiment on a private rig, behind chaos's panic fence.
func runSession(sess Session) (experiment.GoalResult, *chaos.Contained, error) {
	profile := sess.Profile
	opt := experiment.GoalOptions{
		Seed:            sess.Seed,
		InitialEnergy:   sess.InitialEnergy,
		Goal:            sess.Goal,
		Bursty:          sess.Bursty,
		SmartBattery:    sess.SmartBattery,
		Peukert:         sess.Peukert,
		Supervise:       sess.Supervise,
		Apps:            sess.Apps,
		Profile:         &profile,
		CompositePeriod: sess.CompositePeriod,
	}
	if sess.OffloadServers > 0 {
		opt.Offload = &experiment.OffloadConfig{
			Servers:    sess.OffloadServers,
			Contention: sess.OffloadContention,
			NoHedge:    sess.OffloadNoHedge,
		}
	}
	if mutateSession != nil {
		mutateSession(&sess, &opt)
	}
	return chaos.RunContained(opt, sess.Faults, sess.Misbehave)
}
