package faults

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"odyssey/internal/core"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/supervise"
)

// Plan serialization. A running Plan holds live pointers into one trial's
// rig (the network, the servers, a SmartBattery, the applications), so a
// plan never serializes itself: what serializes is its PlanSpec — the
// plan's name and seed plus each injector's kind, target name and timing
// parameters — and PlanSpec.Plan binds a spec to a fresh rig through the
// Targets interface. PlanSpec -> JSON -> PlanSpec -> Plan is exact: the
// spec carries the plan's seed, so a replayed plan draws the identical
// fault schedule.

// Dur is a time.Duration that marshals as its String form ("2m10s"). The
// round trip is exact: ParseDuration inverts String for every duration.
type Dur time.Duration

// D returns the underlying time.Duration.
func (d Dur) D() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("faults: bad duration %q: %w", s, err)
	}
	*d = Dur(v)
	return nil
}

// Injector spec kinds.
const (
	KindLink           = "link-outage"
	KindLoss           = "byte-loss"
	KindServerCrash    = "server-crash"
	KindServerLatency  = "server-latency"
	KindBatteryDropout = "battery-dropout"
	KindAppCrash       = "app-crash"
	KindAppHang        = "app-hang"
	KindAppThrash      = "app-thrash"
	KindAppLie         = "app-lie"
)

// InjectorSpec is one injector: PlanSpec.Plan binds it to its target and
// the bound injector reads its parameters from here. Fields are reused
// across kinds: MeanUp/MeanDown are the healthy/faulted dwell means
// (calm/spike for latency, lifetime-between-kills for app-crash, the fixed
// firing delay for the planted kinds), MaxDown, if positive, caps one
// faulted window of any WindowKinds kind, and the scalar fields carry the
// kind-specific magnitudes.
type InjectorSpec struct {
	Kind   string `json:"kind"`
	Target string `json:"target,omitempty"` // server or application name

	MeanUp   Dur `json:"mean_up,omitempty"`
	MeanDown Dur `json:"mean_down,omitempty"`
	MaxDown  Dur `json:"max_down,omitempty"`
	Period   Dur `json:"period,omitempty"` // app-thrash re-raise cadence (default 2 s, at least 1 ms)

	Fraction float64 `json:"fraction,omitempty"` // byte-loss mean fraction
	Spread   float64 `json:"spread,omitempty"`   // byte-loss +/- spread
	Factor   float64 `json:"factor,omitempty"`   // server-latency multiplier
	Delta    int     `json:"delta,omitempty"`    // app-lie level divergence
}

// Targets resolves the symbolic names in injector specs against one trial's
// live rig. Implementations return ok=false (or nil for the battery) when a
// target does not exist in the scenario, which PlanSpec.Plan reports as
// an error rather than a panic, so a malformed or over-shrunk spec fails the
// single trial instead of the whole soak.
type Targets interface {
	// Network returns the wireless network under test.
	Network() *netsim.Network
	// Server resolves a remote server by name.
	Server(name string) (*netsim.Server, bool)
	// Battery returns the SmartBattery, or nil when the scenario reads
	// the bench supply.
	Battery() *smartbattery.Battery
	// App resolves an adaptive application and its misbehavior surface.
	App(name string) (core.Adaptive, *supervise.AppHealth, bool)
}

// TargetAnyPool is the symbolic server target "any member of the offload
// pool": a chaos scenario can crash or overload a pool member without
// naming a concrete rig object whose name depends on the pool size. The
// victim is drawn from the plan's seeded RNG at Start, so which member
// falls is deterministic per seed and the spec round-trips symbolically.
const TargetAnyPool = "pool:any"

// PoolTargets is the optional extension a binder implements when its rig
// carries an offload pool; PlanSpec.Plan consults it only for TargetAnyPool
// specs, so binders for pool-less rigs need not change.
type PoolTargets interface {
	// PoolServers returns the pool members, in index order.
	PoolServers() []*netsim.Server
}

// poolServers resolves TargetAnyPool against tg, erroring when the binder
// has no pool (or an empty one) to draw from.
func poolServers(kind string, tg Targets) ([]*netsim.Server, error) {
	pt, ok := tg.(PoolTargets)
	if !ok {
		return nil, fmt.Errorf("faults: %s: target %q but the rig has no offload pool", kind, TargetAnyPool)
	}
	pool := pt.PoolServers()
	if len(pool) == 0 {
		return nil, fmt.Errorf("faults: %s: target %q but the offload pool is empty", kind, TargetAnyPool)
	}
	return pool, nil
}

// bind resolves the spec's target in tg and returns the injector that
// drives it, reading its parameters from the spec.
func (s InjectorSpec) bind(tg Targets) (injector, error) {
	switch s.Kind {
	case KindLoss:
		return &byteLoss{spec: s, net: tg.Network()}, nil
	case KindTestPanic, KindTestProcPanic, KindTestLivelock:
		return &planted{kind: s.Kind, delay: s.MeanUp.D()}, nil
	case KindAppCrash:
		app, health, ok := tg.App(s.Target)
		if !ok {
			return nil, fmt.Errorf("faults: %s: unknown application %q", s.Kind, s.Target)
		}
		return &appCrash{spec: s, subject: "crash:" + app.Name(), health: health}, nil
	}
	wk := windowKind(s.Kind)
	if wk == nil {
		return nil, fmt.Errorf("faults: unknown injector kind %q", s.Kind)
	}
	w := &window{WindowKind: wk, spec: s, subject: wk.prefix}
	switch s.Kind {
	case KindLink:
		w.net = tg.Network()
	case KindServerCrash, KindServerLatency:
		if s.Target == TargetAnyPool {
			pool, err := poolServers(s.Kind, tg)
			if err != nil {
				return nil, err
			}
			w.pool = pool
			return w, nil
		}
		srv, ok := tg.Server(s.Target)
		if !ok {
			return nil, fmt.Errorf("faults: %s: unknown server %q", s.Kind, s.Target)
		}
		w.srv, w.subject = srv, w.subject+srv.Name
	case KindBatteryDropout:
		if w.bat = tg.Battery(); w.bat == nil {
			return nil, fmt.Errorf("faults: %s: scenario has no SmartBattery", s.Kind)
		}
	default: // the application kinds
		app, health, ok := tg.App(s.Target)
		if !ok {
			return nil, fmt.Errorf("faults: %s: unknown application %q", s.Kind, s.Target)
		}
		w.app, w.health, w.subject = app, health, w.subject+app.Name()
	}
	return w, nil
}

// PlanSpec is the serializable form of a Plan: its name, its RNG seed, and
// its injector specs, in order. Injector order matters — it fixes the order
// injectors arm against the plan's single RNG stream — so the spec
// preserves it exactly.
type PlanSpec struct {
	Name      string         `json:"name"`
	Seed      int64          `json:"seed"`
	Injectors []InjectorSpec `json:"injectors,omitempty"`
}

// Plan binds the spec to tg: a plan driving its injectors from k, with
// fault timing drawn from its own stream seeded by the spec's Seed. An
// unknown kind or an unresolvable target is an error.
func (s PlanSpec) Plan(k *sim.Kernel, tg Targets) (*Plan, error) {
	pl := &Plan{Name: s.Name, k: k, rng: rand.New(rand.NewSource(s.Seed)), counts: make(map[string]int)}
	for _, is := range s.Injectors {
		in, err := is.bind(tg)
		if err != nil {
			return nil, err
		}
		pl.injectors = append(pl.injectors, in)
	}
	return pl, nil
}
