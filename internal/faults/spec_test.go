package faults_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"odyssey/internal/core"
	"odyssey/internal/faults"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
	"odyssey/internal/smartbattery"
	"odyssey/internal/supervise"
	"odyssey/internal/trace"
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
	bat := smartbattery.New(m.K, m.Acct, 1, 10_000)
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

// cappedSpec gives every window kind a faulted dwell mean forty times its
// MaxDown, so without the cap nearly every window would outlast it.
func cappedSpec() faults.PlanSpec {
	spec := faults.PlanSpec{Name: "capped", Seed: 31}
	for _, wk := range faults.WindowKinds {
		is := faults.InjectorSpec{Kind: wk.Kind, MeanUp: faults.Dur(20 * time.Second),
			MeanDown: faults.Dur(10 * time.Minute), MaxDown: faults.Dur(15 * time.Second)}
		switch wk.Kind {
		case faults.KindServerCrash:
			is.Target = "srv-a"
		case faults.KindServerLatency:
			is.Target, is.Factor = "srv-a", 3
		case faults.KindAppHang, faults.KindAppThrash, faults.KindAppLie:
			is.Target = "video"
		}
		spec.Injectors = append(spec.Injectors, is)
	}
	return spec
}

// subjectOf is the event subject an injector bound from is logs under, or
// its prefix when the victim is drawn from the pool at Start.
func subjectOf(is faults.InjectorSpec) string {
	prefix := map[string]string{
		faults.KindLink: "link", faults.KindLoss: "loss", faults.KindBatteryDropout: "battery",
		faults.KindServerCrash: "server:", faults.KindServerLatency: "latency:",
		faults.KindAppCrash: "crash:", faults.KindAppHang: "hang:",
		faults.KindAppThrash: "thrash:", faults.KindAppLie: "lie:",
	}[is.Kind]
	if is.Target == faults.TargetAnyPool || !strings.HasSuffix(prefix, ":") {
		return prefix
	}
	return prefix + is.Target
}

// checkSpecWiring: PlanSpec.Plan binds every injector of spec to tg's named
// objects and each one acts on its parameters. Binding logs nothing and
// pins no "pool:any" victim before Start; over ten virtual minutes every
// injector fires under the subject of its target (a pool member for
// "pool:any"), a spike, lie or loss event carries the spec's magnitude, and
// no window outlasts the spec's MaxDown. The PlanSpec survives JSON
// unchanged, and re-marshalling gives the same bytes.
func checkSpecWiring(t *testing.T, spec faults.PlanSpec, k *sim.Kernel, tg faults.Targets) {
	t.Helper()
	pl, err := spec.Plan(k, tg)
	if err != nil {
		t.Fatalf("Plan(%+v): %v", spec, err)
	}
	if n := pl.TotalEvents(); n != 0 {
		t.Fatalf("%d fault events before Start", n)
	}
	pl.Log = trace.NewLog(k.Now, 0)
	pl.Start()
	k.At(k.Now()+10*time.Minute, func() { k.Stop() })
	k.Run(0)
	pl.Stop()
	events := pl.Log.Filter(trace.CatFault, "")
	for _, is := range spec.Injectors {
		subject, fired := subjectOf(is), false
		if is.Target == faults.TargetAnyPool {
			for _, e := range events {
				if e.Message == "pool victim" && strings.HasPrefix(e.Subject, subject) {
					subject = e.Subject
				}
			}
			if pt, ok := tg.(faults.PoolTargets); !ok || !inPool(pt.PoolServers(), strings.TrimPrefix(subject, subjectOf(is))) {
				t.Errorf("%s: victim subject %q is not a pool member", is.Kind, subject)
			}
		}
		opened := []time.Duration{}
		for _, e := range events {
			if e.Subject != subject || e.Message == "pool victim" {
				continue
			}
			fired = true
			switch e.Message {
			case "spike begin":
				if e.Value != is.Factor {
					t.Errorf("%s: spike factor %v, want %v", subject, e.Value, is.Factor)
				}
			case "lie begin":
				want := is.Delta
				if want == 0 {
					want = 2 // the default divergence
				}
				if e.Value != float64(want) {
					t.Errorf("%s: lie delta %v, want %v", subject, e.Value, want)
				}
			case "byte loss armed":
				if e.Value != is.Fraction {
					t.Errorf("%s: loss fraction %v, want %v", subject, e.Value, is.Fraction)
				}
			}
			for _, wk := range faults.WindowKinds {
				if wk.Kind != is.Kind {
					continue
				}
				if e.Message == wk.Begin {
					opened = append(opened, e.Time)
				} else if e.Message == wk.End && len(opened) > 0 {
					if d := e.Time - opened[0]; is.MaxDown > 0 && d > is.MaxDown.D() {
						t.Errorf("%s: window at %v lasted %v, past MaxDown %v", subject, opened[0], d, is.MaxDown.D())
					}
					opened = opened[1:]
				}
			}
		}
		if !fired {
			t.Errorf("%s: no events under %q in ten minutes", is.Kind, subject)
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

func inPool(pool []*netsim.Server, name string) bool {
	for _, srv := range pool {
		if srv.Name == name {
			return true
		}
	}
	return false
}

// TestPlanSpecJSONRoundTrip: for every injector kind and every parameter
// field, PlanSpec.Plan wires the spec onto the injector and the PlanSpec
// survives JSON marshal -> unmarshal -> marshal unchanged. MaxDown caps
// every window kind, a latency spike and a lie window included.
func TestPlanSpecJSONRoundTrip(t *testing.T) {
	k, tg := newSpecRig(1)
	checkSpecWiring(t, allKindsSpec(), k, tg)
	k, tg = newSpecRig(2)
	checkSpecWiring(t, cappedSpec(), k, tg)
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
		spec := faults.PlanSpec{Name: "bad", Seed: 1, Injectors: []faults.InjectorSpec{is}}
		if _, err := spec.Plan(k, tg); err == nil {
			t.Errorf("PlanSpec with %+v materialized; want error", is)
		}
	}
	// Battery-dropout without a battery is an error too.
	noBat := &stubTargets{net: tg.net, servers: tg.servers, apps: tg.apps}
	spec := faults.PlanSpec{Name: "bad", Seed: 1, Injectors: []faults.InjectorSpec{{Kind: faults.KindBatteryDropout}}}
	if _, err := spec.Plan(k, noBat); err == nil {
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
