package fleet

import (
	"math/rand"
	"time"

	"odyssey/internal/chaos"
	"odyssey/internal/faults"
	"odyssey/internal/hw"
	"odyssey/internal/workload"
)

// The population model. A fleet is a weighted mix of device classes (how
// the hardware drinks energy) crossed with a weighted mix of user
// behaviors (how the user spends it), plus staggered session churn across
// a horizon. Session i of a run is a pure function of (population, fleet
// seed, i): every parameter below is drawn from a private generator seeded
// by mixing the fleet seed with the index, so any session can be
// re-derived — and re-run — in isolation, and the whole fleet replays
// byte-identically from one seed.

// Range is a closed uniform draw interval.
type Range struct{ Lo, Hi float64 }

func (r Range) draw(rng *rand.Rand) float64 {
	if r.Hi <= r.Lo {
		return r.Lo
	}
	return r.Lo + (r.Hi-r.Lo)*rng.Float64()
}

// DurRange is a closed uniform draw interval over durations, quantized to
// seconds (session-length granularity).
type DurRange struct{ Lo, Hi time.Duration }

func (r DurRange) draw(rng *rand.Rand) time.Duration {
	if r.Hi <= r.Lo {
		return r.Lo
	}
	d := r.Lo + time.Duration(rng.Int63n(int64(r.Hi-r.Lo)+1))
	return d.Round(time.Second)
}

// DeviceClass describes one hardware variant in the fleet: a scaling of
// the baseline power profile, a battery-capacity factor over the nominal
// supply, and the battery instrumentation the class ships with.
type DeviceClass struct {
	Name   string
	Weight float64

	Power   Range // multiplier on every power rail of the base profile
	Link    Range // multiplier on wireless link bandwidth
	Battery Range // multiplier on the nominal supply sizing

	SmartBattery float64 // probability the device has a monitoring circuit
	Peukert      Range   // capacity exponent drawn for smart batteries
}

// Behavior describes one user archetype: which applications they run, how
// hard they drive them, and how long their sessions last.
type Behavior struct {
	Name   string
	Weight float64

	// AppP is the per-application enable probability, aligned index-for-
	// index with workload.Names. A draw that enables nothing falls back to
	// the archetype's highest-probability application.
	AppP []float64

	Bursty    float64  // probability of the bursty interactive workload
	Goal      DurRange // session length
	Period    Range    // multiplier on the composite workload period
	Supervise float64  // probability the supervision plane is on
	FaultP    float64  // probability of an environmental fault mix
	MisP      float64  // probability of an application-misbehavior mix
	OffloadP  float64  // probability the offload plane is armed
}

// Population is the full fleet description.
type Population struct {
	Name      string
	Base      hw.Profile
	Classes   []DeviceClass
	Behaviors []Behavior

	// Watts sizes the nominal supply: a session's initial energy is a
	// draw from this band times the class battery factor times the goal
	// length, so some sessions are comfortable and some are infeasible.
	Watts Range

	// Horizon is the churn window: session starts are staggered uniformly
	// across it, so fleet concurrency ramps and drains instead of
	// thundering.
	Horizon time.Duration
}

// DefaultPopulation is the reference fleet: four device classes from
// flagship to aged hardware crossed with four user archetypes, over the
// ThinkPad-560X baseline profile.
func DefaultPopulation() Population {
	return Population{
		Name: "default",
		Base: hw.ThinkPad560X(),
		Classes: []DeviceClass{
			{
				Name: "flagship", Weight: 0.25,
				Power: Range{0.82, 0.95}, Link: Range{1.2, 1.6}, Battery: Range{1.4, 1.8},
				SmartBattery: 0.9, Peukert: Range{1.0, 1.05},
			},
			{
				Name: "midrange", Weight: 0.40,
				Power: Range{0.95, 1.05}, Link: Range{0.9, 1.2}, Battery: Range{1.0, 1.3},
				SmartBattery: 0.7, Peukert: Range{1.0, 1.1},
			},
			{
				Name: "budget", Weight: 0.25,
				Power: Range{1.05, 1.2}, Link: Range{0.6, 0.9}, Battery: Range{0.8, 1.0},
				SmartBattery: 0.5, Peukert: Range{1.05, 1.15},
			},
			{
				Name: "aged", Weight: 0.10,
				Power: Range{1.0, 1.15}, Link: Range{0.8, 1.0}, Battery: Range{0.55, 0.8},
				SmartBattery: 1.0, Peukert: Range{1.1, 1.3},
			},
		},
		Behaviors: []Behavior{
			{
				Name: "commuter", Weight: 0.35,
				AppP:   []float64{0.5, 0.6, 0.7, 0.8},
				Bursty: 0.25, Goal: DurRange{2 * time.Minute, 5 * time.Minute},
				Period: Range{0.8, 1.2}, Supervise: 0.6, FaultP: 0.2, MisP: 0.1, OffloadP: 0.3,
			},
			{
				Name: "streamer", Weight: 0.25,
				AppP:   []float64{0.2, 1.0, 0.2, 0.4},
				Bursty: 0.0, Goal: DurRange{3 * time.Minute, 7 * time.Minute},
				Period: Range{1.2, 2.0}, Supervise: 0.5, FaultP: 0.25, MisP: 0.05, OffloadP: 0.35,
			},
			{
				Name: "browser", Weight: 0.25,
				AppP:   []float64{0.3, 0.2, 0.8, 1.0},
				Bursty: 0.5, Goal: DurRange{90 * time.Second, 3 * time.Minute},
				Period: Range{0.6, 1.0}, Supervise: 0.5, FaultP: 0.2, MisP: 0.1, OffloadP: 0.25,
			},
			{
				Name: "fieldworker", Weight: 0.15,
				AppP:   []float64{0.9, 0.3, 0.9, 0.5},
				Bursty: 0.3, Goal: DurRange{2 * time.Minute, 6 * time.Minute},
				Period: Range{0.8, 1.4}, Supervise: 0.8, FaultP: 0.4, MisP: 0.15, OffloadP: 0.5,
			},
		},
		Watts:   Range{12, 26},
		Horizon: time.Hour,
	}
}

// Session is one device-session, fully derived: everything the runner
// needs to execute it through experiment.RunGoal.
type Session struct {
	Index    int
	Seed     int64
	Class    string
	Behavior string

	Profile         hw.Profile
	InitialEnergy   float64
	Goal            time.Duration
	Start           time.Duration // stagger offset within the churn window
	Apps            []string
	Bursty          bool
	CompositePeriod time.Duration
	SmartBattery    bool
	Peukert         float64
	Supervise       bool

	Faults    *faults.PlanSpec
	Misbehave *faults.PlanSpec

	// Offload plane (zero OffloadServers = disarmed, legacy paths).
	OffloadServers    int
	OffloadContention float64
	OffloadNoHedge    bool
}

// mix64 combines the fleet seed and a session index into an independent
// session seed (splitmix64 finalizer over their xor-fold).
func mix64(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// pickWeighted draws an index from the weight vector. Weights need not be
// normalized; a non-positive total falls back to index 0.
func pickWeighted(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// compositePeriodBase mirrors the goal experiment's default composite
// workload period; behavior period factors scale it.
const compositePeriodBase = 25 * time.Second

// Session derives device-session i of the fleet run seeded by fleetSeed.
// The draw order below is part of the replay contract — reordering any
// draw changes every scorecard byte — so extensions must append draws,
// never interleave them.
func (p Population) Session(fleetSeed int64, i int) Session {
	sess := Session{Index: i, Seed: mix64(fleetSeed, i)}
	rng := rand.New(rand.NewSource(sess.Seed))

	// 1. Device class and its hardware draw.
	cw := make([]float64, len(p.Classes))
	for ci := range p.Classes {
		cw[ci] = p.Classes[ci].Weight
	}
	cls := p.Classes[pickWeighted(rng, cw)]
	sess.Class = cls.Name
	sess.Profile = p.Base.Scaled(cls.Power.draw(rng), cls.Link.draw(rng))
	batteryFactor := cls.Battery.draw(rng)
	sess.SmartBattery = rng.Float64() < cls.SmartBattery
	if sess.SmartBattery {
		sess.Peukert = cls.Peukert.draw(rng)
	}

	// 2. Behavior and its workload draw.
	bw := make([]float64, len(p.Behaviors))
	for bi := range p.Behaviors {
		bw[bi] = p.Behaviors[bi].Weight
	}
	beh := p.Behaviors[pickWeighted(rng, bw)]
	sess.Behavior = beh.Name
	best := 0
	for ai, name := range workload.Names {
		pEnable := 0.0
		if ai < len(beh.AppP) {
			pEnable = beh.AppP[ai]
		}
		if rng.Float64() < pEnable {
			sess.Apps = append(sess.Apps, name)
		}
		if ai < len(beh.AppP) && beh.AppP[ai] > beh.AppP[best] {
			best = ai
		}
	}
	if len(sess.Apps) == 0 {
		sess.Apps = []string{workload.Names[best]}
	}
	sess.Bursty = rng.Float64() < beh.Bursty
	sess.Goal = beh.Goal.draw(rng)
	sess.CompositePeriod = time.Duration(float64(compositePeriodBase) * beh.Period.draw(rng)).Round(time.Millisecond)
	sess.Supervise = rng.Float64() < beh.Supervise

	// 3. Supply sizing and churn placement.
	sess.InitialEnergy = p.Watts.draw(rng) * batteryFactor * sess.Goal.Seconds()
	if p.Horizon > 0 {
		sess.Start = time.Duration(rng.Int63n(int64(p.Horizon))).Round(time.Second)
	}

	// 4. Weather: fault and misbehavior mixes reuse the chaos soak's
	// injector distributions, so any fleet anomaly has a chaos scenario
	// shaped like it.
	if rng.Float64() < beh.FaultP {
		n := 1 + rng.Intn(2)
		sess.Faults = chaos.RandomFaultPlan(rng, "fleet-faults", faultSeed(sess.Seed), sess.SmartBattery, n)
	}
	if rng.Float64() < beh.MisP {
		n := 1 + rng.Intn(2)
		sess.Misbehave = chaos.RandomMisbehavePlan(rng, "fleet-misbehave", misbehaveSeed(sess.Seed), sess.Apps, n)
	}

	// 5. Offload plane (appended after every pre-existing draw, per the
	// contract above). The parameter draws happen unconditionally so a
	// future step 6 sees the same stream whether or not the plane armed.
	armed := rng.Float64() < beh.OffloadP
	servers := 2 + rng.Intn(3)
	contention := 0.8 * rng.Float64()
	noHedge := rng.Float64() < 0.25
	if armed {
		sess.OffloadServers = servers
		sess.OffloadContention = contention
		sess.OffloadNoHedge = noHedge
	}
	return sess
}

// Plan-seed derivation. These offsets (+131, +223) are fleet's own and do
// not match the chaos and experiment convention (experiment.FaultPlanSeed
// and MisbehavePlanSeed, +97 and +211); faultSeed's +131 also equals
// supervise.supSeed, so a session that arms both a fault plan and the
// supervisor draws both from one stream. Changing either moves fleet
// output, so the fix waits for a change that re-blesses it.
func faultSeed(seed int64) int64     { return seed*2654435761 + 131 }
func misbehaveSeed(seed int64) int64 { return seed*2654435761 + 223 }
