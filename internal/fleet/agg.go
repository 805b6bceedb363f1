package fleet

import (
	"fmt"
	"sort"
	"strings"

	"odyssey/internal/chaos"
	"odyssey/internal/experiment"
)

// Agg is a streaming count/sum/min/max accumulator. Merge adds sums and
// counts and takes min/max of extremes — all exactly commutative, so the
// shard reduction can fold in any grouping as long as the *order of
// observations within a shard* is fixed (float addition is commutative but
// not associative; the fleet runner fixes both the within-shard fold order
// and the shard merge order).
type Agg struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Observe folds one value into the accumulator.
func (a *Agg) Observe(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	a.Sum += v
}

// Merge folds b into a.
func (a *Agg) Merge(b Agg) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = b
		return
	}
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	a.Count += b.Count
	a.Sum += b.Sum
}

// Mean reports the running mean, or 0 when empty.
func (a Agg) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// GroupAgg is the per-group (device-class or behavior) slice of the fleet
// reduction: enough to rank groups by goal attainment and residual shape.
type GroupAgg struct {
	Sessions int64
	GoalMet  int64
	Residual *Sketch
	Energy   Agg
}

func newGroupAgg() *GroupAgg { return &GroupAgg{Residual: NewSketch()} }

func (g *GroupAgg) merge(o *GroupAgg) {
	g.Sessions += o.Sessions
	g.GoalMet += o.GoalMet
	g.Residual.Merge(o.Residual)
	g.Energy.Merge(o.Energy)
}

// Aggregate is the full mergeable reduction of a set of fleet sessions.
// Memory is bounded independent of how many sessions it has absorbed: a
// handful of sketches, each holding only the bucket range its values
// occupy, and small maps keyed by principal and group name.
type Aggregate struct {
	Sessions    int64
	GoalMet     int64
	Quarantines int64 // applications quarantined, summed over sessions
	Restarts    int64
	Adaptations int64
	FaultEvents int64

	// ContainedPanics/ContainedStalls count sessions the runner's
	// containment fence recovered: a panic transported out of the rig, or
	// the kernel's virtual-time stall detector. Contained sessions count
	// toward Sessions (they are goal misses) but their outcome-derived
	// metrics are partial garbage and are NOT folded into the sketches or
	// energy ledgers below.
	ContainedPanics int64
	ContainedStalls int64

	Residual   *Sketch // residual energy at session end (J)
	SessionMin *Sketch // session goal length (minutes)
	StartMin   *Sketch // session start offset within the churn window (minutes)
	Energy     Agg     // drained energy per session (J)
	RetryJ     Agg     // energy burned in fault retries per session (J)

	ByPrincipal map[string]*Agg      // per-session energy by accounting principal (J)
	ByClass     map[string]*GroupAgg // keyed by device-class name
	ByBehavior  map[string]*GroupAgg // keyed by behavior name
}

// NewAggregate returns an empty reduction.
func NewAggregate() *Aggregate {
	return &Aggregate{
		Residual:    NewSketch(),
		SessionMin:  NewSketch(),
		StartMin:    NewSketch(),
		ByPrincipal: map[string]*Agg{},
		ByClass:     map[string]*GroupAgg{},
		ByBehavior:  map[string]*GroupAgg{},
	}
}

// sortedKeys collects map keys in deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Merge folds o into a. Scalar counters and sketches merge commutatively;
// map entries merge key-wise in sorted key order, so merge(a,b) and
// merge(b,a) produce byte-identical aggregates when a and b were built from
// disjoint session ranges each folded in index order.
func (a *Aggregate) Merge(o *Aggregate) {
	a.Sessions += o.Sessions
	a.GoalMet += o.GoalMet
	a.Quarantines += o.Quarantines
	a.Restarts += o.Restarts
	a.Adaptations += o.Adaptations
	a.FaultEvents += o.FaultEvents
	a.ContainedPanics += o.ContainedPanics
	a.ContainedStalls += o.ContainedStalls
	a.Residual.Merge(o.Residual)
	a.SessionMin.Merge(o.SessionMin)
	a.StartMin.Merge(o.StartMin)
	a.Energy.Merge(o.Energy)
	a.RetryJ.Merge(o.RetryJ)

	for _, k := range sortedKeys(o.ByPrincipal) {
		dst := a.ByPrincipal[k]
		if dst == nil {
			dst = &Agg{}
			a.ByPrincipal[k] = dst
		}
		dst.Merge(*o.ByPrincipal[k])
	}
	for _, k := range sortedKeys(o.ByClass) {
		dst := a.ByClass[k]
		if dst == nil {
			dst = newGroupAgg()
			a.ByClass[k] = dst
		}
		dst.merge(o.ByClass[k])
	}
	for _, k := range sortedKeys(o.ByBehavior) {
		dst := a.ByBehavior[k]
		if dst == nil {
			dst = newGroupAgg()
			a.ByBehavior[k] = dst
		}
		dst.merge(o.ByBehavior[k])
	}
}

// observe folds one finished session into the reduction. A contained
// session (cv non-nil: a panic or stall recovered by the runner's fence)
// counts toward Sessions and its contained counter; everything else about
// it is a partial measurement of a run that died mid-flight, so only the
// session-spec sketches (goal length, start stagger) are folded.
func (a *Aggregate) observe(sess Session, res experiment.GoalResult, cv *chaos.Contained) {
	a.Sessions++
	a.SessionMin.Observe(sess.Goal.Minutes())
	a.StartMin.Observe(sess.Start.Minutes())
	if cv != nil {
		if cv.Sentinel == chaos.SentinelStall {
			a.ContainedStalls++
		} else {
			a.ContainedPanics++
		}
		return
	}
	if res.Met {
		a.GoalMet++
	}
	a.Quarantines += int64(len(res.Quarantined))
	a.Restarts += int64(res.Restarts)
	for _, n := range res.Adaptations {
		a.Adaptations += int64(n)
	}
	a.FaultEvents += int64(res.FaultEvents)
	a.Residual.Observe(res.Residual)
	a.Energy.Observe(res.Ledger.Total)
	a.RetryJ.Observe(res.RetryEnergy)

	for _, name := range sortedKeys(res.Ledger.ByPrincipal) {
		dst := a.ByPrincipal[name]
		if dst == nil {
			dst = &Agg{}
			a.ByPrincipal[name] = dst
		}
		dst.Observe(res.Ledger.ByPrincipal[name])
	}
	for _, g := range []struct {
		m   map[string]*GroupAgg
		key string
	}{
		{a.ByClass, sess.Class},
		{a.ByBehavior, sess.Behavior},
	} {
		dst := g.m[g.key]
		if dst == nil {
			dst = newGroupAgg()
			g.m[g.key] = dst
		}
		dst.Sessions++
		if res.Met {
			dst.GoalMet++
		}
		dst.Residual.Observe(res.Residual)
		dst.Energy.Observe(res.Ledger.Total)
	}
}

// GoalMissRate is the fraction of sessions that missed their energy goal.
func (a *Aggregate) GoalMissRate() float64 {
	if a.Sessions == 0 {
		return 0
	}
	return float64(a.Sessions-a.GoalMet) / float64(a.Sessions)
}

// QuarantineRate is the mean number of quarantined applications per session.
func (a *Aggregate) QuarantineRate() float64 {
	if a.Sessions == 0 {
		return 0
	}
	return float64(a.Quarantines) / float64(a.Sessions)
}

// Fingerprint renders every field of the aggregate — counters, sketch
// quantiles at fine grain, and all map entries in sorted key order — with
// floats in exact hex form. Two aggregates are byte-identical exactly when
// their fingerprints match; the determinism gates compare these.
func (a *Aggregate) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d met=%d quar=%d restarts=%d adapt=%d faults=%d cpanic=%d cstall=%d\n",
		a.Sessions, a.GoalMet, a.Quarantines, a.Restarts, a.Adaptations, a.FaultEvents,
		a.ContainedPanics, a.ContainedStalls)
	for _, s := range []struct {
		name string
		sk   *Sketch
	}{{"residual", a.Residual}, {"sessionmin", a.SessionMin}, {"startmin", a.StartMin}} {
		fmt.Fprintf(&b, "%s n=%d", s.name, s.sk.Count())
		for q := 0; q <= 100; q += 5 {
			fmt.Fprintf(&b, " %x", s.sk.Quantile(float64(q)/100))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "energy=%s retryJ=%s\n", a.Energy.hex(), a.RetryJ.hex())
	for _, k := range sortedKeys(a.ByPrincipal) {
		fmt.Fprintf(&b, "principal %s=%s\n", k, a.ByPrincipal[k].hex())
	}
	for _, grp := range []struct {
		label string
		m     map[string]*GroupAgg
	}{{"class", a.ByClass}, {"behavior", a.ByBehavior}} {
		for _, k := range sortedKeys(grp.m) {
			g := grp.m[k]
			fmt.Fprintf(&b, "%s %s sessions=%d met=%d p50=%x p95=%x p99=%x energy=%s\n",
				grp.label, k, g.Sessions, g.GoalMet,
				g.Residual.Quantile(0.50), g.Residual.Quantile(0.95), g.Residual.Quantile(0.99),
				g.Energy.hex())
		}
	}
	return b.String()
}

func (a Agg) hex() string {
	return fmt.Sprintf("n=%d sum=%x min=%x max=%x", a.Count, a.Sum, a.Min, a.Max)
}
