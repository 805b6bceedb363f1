package faults_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"odyssey/internal/core"
	"odyssey/internal/faults"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/supervise"
)

// stubApp is a minimal core.Adaptive for binding app injectors in tests.
type stubApp struct {
	name   string
	level  int
	health supervise.AppHealth
}

func (s *stubApp) Name() string     { return s.name }
func (s *stubApp) Levels() []string { return []string{"lo", "mid", "hi"} }
func (s *stubApp) Level() int       { return s.level }
func (s *stubApp) SetLevel(l int)   { s.level = l }

// stubTargets resolves spec targets against a fixed rig for tests.
type stubTargets struct {
	net     *netsim.Network
	servers map[string]*netsim.Server
	bat     *smartbattery.Battery
	apps    map[string]*stubApp
}

func (t *stubTargets) Network() *netsim.Network { return t.net }
func (t *stubTargets) Server(name string) (*netsim.Server, bool) {
	s, ok := t.servers[name]
	return s, ok
}
func (t *stubTargets) Battery() *smartbattery.Battery { return t.bat }
func (t *stubTargets) App(name string) (core.Adaptive, *supervise.AppHealth, bool) {
	a, ok := t.apps[name]
	if !ok {
		return nil, nil, false
	}
	return a, &a.health, true
}

func newSpecRig(seed int64) (*sim.Kernel, *stubTargets) {
	m, n := newRig(seed)
	srv := netsim.NewServer(m.K, "srv-a")
	bat := smartbattery.New(m.K, m.Acct, smartbattery.DefaultConfig(), 10_000)
	return m.K, &stubTargets{
		net:     n,
		servers: map[string]*netsim.Server{"srv-a": srv},
		bat:     bat,
		apps:    map[string]*stubApp{"video": {name: "video"}},
	}
}

// allKindsSpec exercises every injector kind with every parameter field.
func allKindsSpec() faults.PlanSpec {
	return faults.PlanSpec{
		Name: "round-trip",
		Seed: 987,
		Injectors: []faults.InjectorSpec{
			{Kind: faults.KindLink, MeanUp: faults.Dur(30 * time.Second), MeanDown: faults.Dur(5 * time.Second), MaxDown: faults.Dur(20 * time.Second)},
			{Kind: faults.KindLoss, Fraction: 0.2, Spread: 0.1},
			{Kind: faults.KindServerCrash, Target: "srv-a", MeanUp: faults.Dur(time.Minute), MeanDown: faults.Dur(8 * time.Second), MaxDown: faults.Dur(45 * time.Second)},
			{Kind: faults.KindServerLatency, Target: "srv-a", MeanUp: faults.Dur(40 * time.Second), MeanDown: faults.Dur(10 * time.Second), Factor: 4.5},
			{Kind: faults.KindBatteryDropout, MeanUp: faults.Dur(90 * time.Second), MeanDown: faults.Dur(2 * time.Second)},
			{Kind: faults.KindAppCrash, Target: "video", MeanUp: faults.Dur(2 * time.Minute)},
			{Kind: faults.KindAppHang, Target: "video", MeanUp: faults.Dur(80 * time.Second), MeanDown: faults.Dur(10 * time.Second), MaxDown: faults.Dur(time.Minute)},
			{Kind: faults.KindAppThrash, Target: "video", MeanUp: faults.Dur(80 * time.Second), MeanDown: faults.Dur(20 * time.Second), Period: faults.Dur(3 * time.Second)},
			{Kind: faults.KindAppLie, Target: "video", MeanUp: faults.Dur(80 * time.Second), MeanDown: faults.Dur(30 * time.Second), Delta: 2},
		},
	}
}

// specOf reads a built injector back into the spec that should have built
// it, failing t when the injector is bound to anything but tg's objects.
func specOf(t *testing.T, inj faults.Injector, tg faults.Targets) faults.InjectorSpec {
	t.Helper()
	server := func(srv *netsim.Server, pool []*netsim.Server) string {
		if pool != nil {
			if srv != nil {
				t.Errorf("%s: pool:any injector pinned victim %q before Start", inj.Name(), srv.Name)
			}
			if want := tg.(faults.PoolTargets).PoolServers(); !reflect.DeepEqual(pool, want) {
				t.Errorf("%s: pool %v, want the rig's %v", inj.Name(), pool, want)
			}
			return faults.TargetAnyPool
		}
		if want, ok := tg.Server(srv.Name); !ok || srv != want {
			t.Errorf("%s: not bound to the rig's server %q", inj.Name(), srv.Name)
		}
		return srv.Name
	}
	app := func(a core.Adaptive, h *supervise.AppHealth) string {
		if wantApp, wantHealth, ok := tg.App(a.Name()); !ok || a != wantApp || h != wantHealth {
			t.Errorf("%s: not bound to the rig's application %q", inj.Name(), a.Name())
		}
		return a.Name()
	}
	network := func(n *netsim.Network) {
		if n != tg.Network() {
			t.Errorf("%s: not bound to the rig's network", inj.Name())
		}
	}
	switch in := inj.(type) {
	case *faults.LinkOutage:
		network(in.Net)
		return faults.InjectorSpec{Kind: faults.KindLink,
			MeanUp: faults.Dur(in.MeanUp), MeanDown: faults.Dur(in.MeanDown), MaxDown: faults.Dur(in.MaxDown)}
	case *faults.ByteLoss:
		network(in.Net)
		return faults.InjectorSpec{Kind: faults.KindLoss, Fraction: in.Fraction, Spread: in.Spread}
	case *faults.ServerCrash:
		return faults.InjectorSpec{Kind: faults.KindServerCrash, Target: server(in.Server, in.Pool),
			MeanUp: faults.Dur(in.MeanUp), MeanDown: faults.Dur(in.MeanDown), MaxDown: faults.Dur(in.MaxDown)}
	case *faults.ServerLatency:
		return faults.InjectorSpec{Kind: faults.KindServerLatency, Target: server(in.Server, in.Pool),
			MeanUp: faults.Dur(in.MeanCalm), MeanDown: faults.Dur(in.MeanSpike), Factor: in.Factor}
	case *faults.BatteryDropout:
		if in.Bat != tg.Battery() {
			t.Errorf("%s: not bound to the rig's battery", inj.Name())
		}
		return faults.InjectorSpec{Kind: faults.KindBatteryDropout, MeanUp: faults.Dur(in.MeanUp), MeanDown: faults.Dur(in.MeanDown)}
	case *faults.AppCrash:
		return faults.InjectorSpec{Kind: faults.KindAppCrash, Target: app(in.App, in.Health), MeanUp: faults.Dur(in.MeanUp)}
	case *faults.AppHang:
		return faults.InjectorSpec{Kind: faults.KindAppHang, Target: app(in.App, in.Health),
			MeanUp: faults.Dur(in.MeanOK), MeanDown: faults.Dur(in.MeanHang), MaxDown: faults.Dur(in.MaxHang)}
	case *faults.AppThrash:
		return faults.InjectorSpec{Kind: faults.KindAppThrash, Target: app(in.App, in.Health),
			MeanUp: faults.Dur(in.MeanCalm), MeanDown: faults.Dur(in.MeanThrash), Period: faults.Dur(in.Period)}
	case *faults.AppLie:
		return faults.InjectorSpec{Kind: faults.KindAppLie, Target: app(in.App, in.Health),
			MeanUp: faults.Dur(in.MeanOK), MeanDown: faults.Dur(in.MeanLie), Delta: in.Delta}
	}
	t.Errorf("unexpected injector type %T", inj)
	return faults.InjectorSpec{}
}

// checkSpecWiring: Build puts every spec field of spec on the injector it
// returns, bound to tg's named objects; a "pool:any" target sets Pool and
// leaves Server nil, so no victim is pinned before Start. The PlanSpec
// survives JSON unchanged, and re-marshalling gives the same bytes.
func checkSpecWiring(t *testing.T, spec faults.PlanSpec, tg faults.Targets) {
	t.Helper()
	for _, is := range spec.Injectors {
		inj, err := is.Build(tg)
		if err != nil {
			t.Fatalf("Build(%+v): %v", is, err)
		}
		if got := specOf(t, inj, tg); got != is {
			t.Errorf("Build wired the wrong fields:\n got %+v\nwant %+v", got, is)
		}
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded faults.PlanSpec
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(decoded, spec) {
		t.Fatalf("decoded spec diverged:\n got %+v\nwant %+v", decoded, spec)
	}
	b2, err := json.Marshal(decoded)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(b) != string(b2) {
		t.Fatalf("unstable serialization:\n %s\n %s", b, b2)
	}
}

// TestPlanSpecJSONRoundTrip: for every injector kind and every parameter
// field, Build wires the spec onto the injector and the PlanSpec survives
// JSON marshal -> unmarshal -> marshal unchanged.
func TestPlanSpecJSONRoundTrip(t *testing.T) {
	_, tg := newSpecRig(1)
	checkSpecWiring(t, allKindsSpec(), tg)
}

// TestDurRoundTrip: the Dur JSON form survives odd durations exactly.
func TestDurRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 1500 * time.Millisecond,
		time.Duration(4749_000_001), 90 * time.Second, 2*time.Hour + 3*time.Nanosecond} {
		b, err := json.Marshal(faults.Dur(d))
		if err != nil {
			t.Fatal(err)
		}
		var got faults.Dur
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got.D() != d {
			t.Fatalf("%v -> %s -> %v", d, b, got.D())
		}
	}
	var bad faults.Dur
	if err := json.Unmarshal([]byte(`"not-a-duration"`), &bad); err == nil {
		t.Fatal("bad duration string decoded without error")
	}
}

// TestSpecBuildErrors: unknown kinds and unresolvable targets are errors,
// never panics — a malformed spec must fail one trial, not a soak worker.
func TestSpecBuildErrors(t *testing.T) {
	k, tg := newSpecRig(3)
	cases := []faults.InjectorSpec{
		{Kind: "warp-core-breach"},
		{Kind: faults.KindServerCrash, Target: "no-such-server"},
		{Kind: faults.KindServerLatency, Target: "no-such-server"},
		{Kind: faults.KindAppCrash, Target: "no-such-app"},
		{Kind: faults.KindAppLie, Target: "no-such-app"},
	}
	for _, is := range cases {
		if _, err := is.Build(tg); err == nil {
			t.Errorf("Build(%+v) succeeded; want error", is)
		}
		spec := faults.PlanSpec{Name: "bad", Seed: 1, Injectors: []faults.InjectorSpec{is}}
		if _, err := spec.Plan(k, tg); err == nil {
			t.Errorf("PlanSpec with %+v materialized; want error", is)
		}
	}
	// Battery-dropout without a battery is an error too.
	noBat := &stubTargets{net: tg.net, servers: tg.servers, apps: tg.apps}
	if _, err := (faults.InjectorSpec{Kind: faults.KindBatteryDropout}).Build(noBat); err == nil {
		t.Error("battery-dropout built without a battery")
	}
}

// TestSpecReplayDeterminism: a plan rebuilt from its JSON on a fresh rig
// draws the identical fault schedule — same event counts at every key.
func TestSpecReplayDeterminism(t *testing.T) {
	run := func(spec faults.PlanSpec) map[string]int {
		k, tg := newSpecRig(7)
		pl, err := spec.Plan(k, tg)
		if err != nil {
			t.Fatalf("materialize: %v", err)
		}
		pl.Start()
		k.At(8*time.Minute, func() { k.Stop() })
		k.Run(0)
		pl.Stop()
		_, counts := pl.Counts()
		return counts
	}
	spec := allKindsSpec()
	first := run(spec)
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded faults.PlanSpec
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	second := run(decoded)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replayed plan diverged:\n got %v\nwant %v", second, first)
	}
	if len(first) == 0 {
		t.Fatal("no fault events in 8 minutes; schedule not exercising injectors")
	}
}
