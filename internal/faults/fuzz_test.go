package faults_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odyssey/internal/experiment"
	"odyssey/internal/faults"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
	"odyssey/internal/trace"
)

// fuzzRig is newPoolRig with every application and remote server a ladder
// or chaos plan may target, so seed plans from those sources bind.
func fuzzRig() (*sim.Kernel, *poolTargets) {
	k, tg := newPoolRig(1, 3)
	for _, name := range []string{"speech", "map", "web"} {
		tg.apps[name] = &stubApp{name: name}
	}
	for _, name := range []string{"video-server", "janus-server", "map-server", "distill-server"} {
		tg.servers[name] = netsim.NewServer(k, name)
	}
	return k, tg
}

// FuzzPlanSpec: any input that decodes as a PlanSpec either fails to bind
// or binds to a plan that runs a virtual minute without panicking, and
// whose Stop leaves every target healthy and every window of
// faults.WindowKinds closed in the fault log. The planted test-* kinds are
// skipped: their job is to panic or livelock.
func FuzzPlanSpec(f *testing.F) {
	seeds := []*faults.PlanSpec{}
	for _, spec := range []faults.PlanSpec{allKindsSpec(), anyPoolSpec(), cappedSpec()} {
		seeds = append(seeds, &spec)
	}
	for _, sev := range experiment.ResilienceSeverities {
		spec, _ := experiment.ResiliencePlan(sev, 1)
		seeds = append(seeds, spec)
	}
	for _, sev := range experiment.MisbehaveSeverities {
		spec, _ := experiment.MisbehavePlan(sev, 1)
		seeds = append(seeds, spec)
	}
	corpus, err := filepath.Glob(filepath.Join("..", "chaos", "testdata", "corpus", "*.json"))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no chaos corpus to seed from (%v)", err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var sc struct{ Faults, Misbehave *faults.PlanSpec }
		if err := json.Unmarshal(data, &sc); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		seeds = append(seeds, sc.Faults, sc.Misbehave)
	}
	for _, spec := range seeds {
		if spec == nil {
			continue
		}
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A nanosecond thrash period: unclamped, one virtual minute of pulses
	// would take hours of wall time.
	f.Add([]byte(`{"injectors":[{"kind":"app-thrash","target":"video","mean_up":"1ms","mean_down":"1h","period":"1ns"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec faults.PlanSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			t.Skip()
		}
		for _, is := range spec.Injectors {
			if strings.HasPrefix(is.Kind, "test-") {
				t.Skip()
			}
		}
		k, tg := fuzzRig()
		pl, err := spec.Plan(k, tg)
		if err != nil {
			return // an unbindable spec is reported, never a panic
		}
		pl.Log = trace.NewLog(k.Now, 0)
		pl.Start()
		k.At(time.Minute, func() { k.Stop() })
		k.Run(0)
		pl.Stop()

		if !tg.net.LinkUp() {
			t.Error("link down after Stop")
		}
		servers := append([]*netsim.Server(nil), tg.pool...)
		for _, srv := range tg.servers {
			servers = append(servers, srv)
		}
		for _, srv := range servers {
			if srv.Down() || srv.LatencyFactor() != 1 {
				t.Errorf("server %s down=%v latency factor %v after Stop", srv.Name, srv.Down(), srv.LatencyFactor())
			}
		}
		if tg.bat.Dropout() {
			t.Error("battery readout dropped out after Stop")
		}
		for name, app := range tg.apps {
			h := &app.health
			if !h.Alive() || h.Hung() || h.Thrashing() || h.LieDelta() != 0 {
				t.Errorf("app %s after Stop: alive=%v hung=%v thrashing=%v lie delta %d",
					name, h.Alive(), h.Hung(), h.Thrashing(), h.LieDelta())
			}
		}
		if pl.Log.Dropped() > 0 {
			return // a log that dropped events cannot be balanced
		}
		open := map[string]int{} // subject/begin -> windows open
		for _, e := range pl.Log.Filter(trace.CatFault, "") {
			for _, wk := range faults.WindowKinds {
				switch e.Message {
				case wk.Begin:
					open[e.Subject+"/"+wk.Begin]++
				case wk.End:
					if open[e.Subject+"/"+wk.Begin]--; open[e.Subject+"/"+wk.Begin] < 0 {
						t.Fatalf("%s: %q at %v without a prior %q", e.Subject, e.Message, e.Time, wk.Begin)
					}
				}
			}
		}
		for key, n := range open {
			if n != 0 {
				t.Errorf("%s: %d window(s) still open after Stop", key, n)
			}
		}
	})
}
