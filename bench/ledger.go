package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"sync"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/chaos"
	"odyssey/internal/experiment"
	"odyssey/internal/fleet"
	"odyssey/internal/trace"
	"odyssey/internal/workload"
)

// The traced run is one layer ledger, the same for every workload: each
// per-layer metric belongs to a layer, and the metric table names the
// workload whose end-to-end numbers it should move. Spans are recorded
// around calls into each layer's public functions from outside; what
// happens inside RunGoal is not visible at this level.

// ledgerSizes fixes how much work each section of the traced run does.
type ledgerSizes struct {
	chaos, fleetBatches, long int // ops of the three RunGoal workloads
	probes                    int // rig and trace-log constructions
	microN                    int // kernel micro-benchmark operations
}

var (
	fullLedger  = ledgerSizes{chaos: 200, fleetBatches: 10, long: 10, probes: 30, microN: 200_000}
	smokeLedger = ledgerSizes{chaos: 6, fleetBatches: 1, long: 2, probes: 3, microN: 2_000}
)

// ledger accumulates the traced run's samples.
type ledger struct {
	c   *config
	sz  ledgerSizes
	tr  *tracer
	out map[string]float64

	mu         sync.Mutex
	rungoal    []float64 // ms of every traced own-options RunGoal
	met, adapt int       // goals met and adaptations over those runs
	violations int       // chaos sentinel violations and run errors
}

// runLedger executes the traced run and returns every per-layer metric.
func runLedger(c *config) (*ledger, error) {
	sz := fullLedger
	if c.smoke {
		sz = smokeLedger
	}
	l := &ledger{c: c, sz: sz, tr: newTracer(), out: map[string]float64{}}
	l.micros()
	l.rigs()
	if err := l.chaos(); err != nil {
		return nil, err
	}
	if err := l.fleet(); err != nil {
		return nil, err
	}
	if err := l.long(); err != nil {
		return nil, err
	}
	l.allocs()
	if err := l.figures(); err != nil {
		return nil, err
	}
	n := float64(max(len(l.rungoal), 1))
	l.out["experiment.rungoal_ms"] = median(l.rungoal)
	l.out["core.goal_met_frac"] = float64(l.met) / n
	l.out["core.adaptations_per_op"] = float64(l.adapt) / n
	return l, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// micros runs each kernel micro-benchmark three times and keeps the median.
func (l *ledger) micros() {
	var ev, sw, swAllocs, ps []float64
	for range 3 {
		l.tr.do("sim.micros", 0, 0, func(int) {
			ev = append(ev, microEvent(l.sz.microN))
			ns, allocs := microSwitch(l.sz.microN / 2)
			sw, swAllocs = append(sw, ns), append(swAllocs, allocs)
			ps = append(ps, microPS(l.sz.microN))
		})
	}
	l.out["sim.event_ns"] = median(ev)
	l.out["sim.switch_ns"] = median(sw)
	l.out["sim.switch_allocs"] = median(swAllocs)
	l.out["sim.psresource_ns"] = median(ps)
}

// rigs times, serially, the rig set-up every RunGoal pays and the trace
// log every recorded run allocates, with the bytes each allocates.
func (l *ledger) rigs() {
	var rigT, rigB, logT, logB []float64
	for i := range l.sz.probes {
		seed := l.c.seed*7919 + int64(i)
		a := readGoStats()
		d := l.tr.do("env.rig", 0, 0, func(int) {
			rig := env.NewRig(seed, 1)
			rig.EnablePowerMgmt()
			workload.NewApps(rig).Register()
			rig.K.Shutdown()
		})
		b := readGoStats()
		var lg *trace.Log
		e := l.tr.do("trace.newlog", 0, 0, func(int) { lg = trace.NewLog(func() time.Duration { return 0 }, 0) })
		c := readGoStats()
		runtime.KeepAlive(lg)
		rigT, rigB = append(rigT, us(d)), append(rigB, float64(b.alloc-a.alloc)/1024)
		logT, logB = append(logT, us(e)), append(logB, float64(c.alloc-b.alloc)/1024)
	}
	l.out["env.rig_us"], l.out["env.rig_kb"] = median(rigT), median(rigB)
	l.out["trace.newlog_us"], l.out["trace.newlog_kb"] = median(logT), median(logB)
}

// traceGoal runs RunGoal as a span and reports its duration, or ok=false
// when a plan failed to build or the run panicked.
func (l *ledger) traceGoal(name string, parent, w int, opt experiment.GoalOptions, buildErr *error) (experiment.GoalResult, time.Duration, bool) {
	var res experiment.GoalResult
	var err error
	d := l.tr.do(name, parent, w, func(int) { res, err = runGoal(opt) })
	return res, d, err == nil && *buildErr == nil
}

// chaosSample is what the traced run learns from one chaos scenario.
type chaosSample struct {
	gen, run, rgEvents, rgPlain time.Duration
	events                      int
	armed                       map[string]time.Duration // plane -> armed minus disarmed
	res                         experiment.GoalResult
	violations                  int
}

// chaos runs the first ops of the chaos-soak stream traced, each followed
// by RunGoal alone, without event recording, and with each armed plane
// disarmed in turn; then untraced, for Go runtime costs and the untraced
// latency.
func (l *ledger) chaos() error {
	n, seed := l.sz.chaos, l.c.seed
	samples := make([]chaosSample, n)
	forEach(n, 2, func(w, i int) {
		s := &samples[i]
		s.armed = map[string]time.Duration{}
		l.tr.do("chaos-soak.op", 0, w, func(root int) {
			var sc chaos.Scenario
			s.gen = l.tr.do("chaos.generate", root, w, func(int) { sc = chaos.Generate(seed + int64(i)) })
			var out *chaos.Outcome
			var err error
			s.run = l.tr.do("chaos.run", root, w, func(int) { out, err = chaos.Run(sc) })
			if err != nil {
				s.violations++
				return
			}
			s.violations += len(out.Report.Violations)
			s.res = out.Result
			sc = out.Scenario
			opt, be := chaosOptions(sc, true)
			res, d, ok := l.traceGoal("experiment.rungoal", root, w, opt, be)
			if !ok {
				return
			}
			s.rgEvents = d
			if res.Events != nil {
				s.events = res.Events.Len()
			}
			l.noteGoal(d, res)
			opt, be = chaosOptions(sc, false)
			if _, s.rgPlain, ok = l.traceGoal("experiment.rungoal.noevents", root, w, opt, be); !ok {
				return
			}
			for _, plane := range []string{"offload", "supervise", "faults"} {
				opt, be := chaosOptions(sc, false)
				switch {
				case plane == "offload" && opt.Offload != nil:
					opt.Offload = nil
				case plane == "supervise" && opt.Supervise:
					opt.Supervise = false
				case plane == "faults" && (opt.Faults != nil || opt.Misbehave != nil):
					opt.Faults, opt.Misbehave = nil, nil
				default:
					continue
				}
				if _, d, ok := l.traceGoal(plane+".disarmed", root, w, opt, be); ok {
					s.armed[plane] = s.rgPlain - d
				}
			}
		})
	})

	// The untraced pass runs second, so both passes see a warmed-up heap.
	a := readGoStats()
	plain := runLoop(chaosOp(seed), 2, n, 0, 0.5)
	a.report(readGoStats(), n, "chaos-soak", l.out)
	if plain.Failed > 0 {
		return fmt.Errorf("chaos-soak: %s", plain.Detail)
	}

	var gen, run, audit, rerun, record, events []float64
	armed := map[string][]float64{}
	var violations, retries, aborts, faultEv, restarts, useful, offloads int
	for _, s := range samples {
		violations += s.violations
		gen, run = append(gen, us(s.gen)), append(run, ms(s.run))
		if s.rgEvents == 0 || s.rgPlain == 0 {
			continue
		}
		audit = append(audit, ms(s.run-2*s.rgEvents))
		rerun = append(rerun, float64(s.rgEvents)/float64(s.run))
		record = append(record, ms(s.rgEvents-s.rgPlain))
		events = append(events, float64(s.events))
		for plane, d := range s.armed {
			armed[plane] = append(armed[plane], ms(d))
		}
		r := s.res
		retries += r.RetryAttempts
		aborts += r.DeadlineAborts
		faultEv += r.FaultEvents
		restarts += r.Restarts
		useful += r.OffloadRemote + r.OffloadHybrid
		offloads += r.OffloadRemote + r.OffloadHybrid + r.OffloadFallbacks
	}
	k := float64(max(len(audit), 1))
	l.out["chaos.generate_us"] = median(gen)
	l.out["chaos.run_ms"] = median(run)
	l.out["chaos.audit_ms"] = median(audit)
	l.out["chaos.rerun_frac"] = median(rerun)
	l.violations = violations
	l.out["chaos.violations"] = float64(violations)
	l.out["trace.record_ms"] = median(record)
	l.out["trace.events_per_op"] = mean(events)
	for _, plane := range []string{"offload", "supervise", "faults"} {
		l.out[plane+".armed_ms"] = median(armed[plane])
	}
	l.out["netsim.retries_per_op"] = float64(retries) / k
	l.out["netsim.deadline_aborts_per_op"] = float64(aborts) / k
	l.out["faults.events_per_op"] = float64(faultEv) / k
	l.out["supervise.restarts_per_op"] = float64(restarts) / k
	l.out["offload.useful_frac"] = float64(useful) / float64(max(offloads, 1))
	if plain.P50Ms > 0 {
		l.out["bench.trace_overhead_frac"] = median(run)/plain.P50Ms - 1
	}
	return nil
}

// noteGoal records one traced own-options RunGoal.
func (l *ledger) noteGoal(d time.Duration, res experiment.GoalResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rungoal = append(l.rungoal, ms(d))
	if res.Met {
		l.met++
	}
	for _, n := range res.Adaptations {
		l.adapt += n
	}
}

// fleet runs the first fleet ops untraced through fleet.Run, then re-runs
// their sessions traced (derivation and RunGoal on two workers) and merges
// and renders the untraced results.
func (l *ledger) fleet() error {
	nb, seed := l.sz.fleetBatches, l.c.seed
	experiment.SetParallelism(2)
	defer experiment.SetParallelism(1)
	results := make([]*fleet.Result, nb)
	var runWall time.Duration
	a := readGoStats()
	for j := range nb {
		t0 := time.Now()
		res, err := fleet.Run(fleetOptions(seed, j))
		runWall += time.Since(t0)
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		results[j] = res
	}
	a.report(readGoStats(), nb, "fleet", l.out)

	var mu sync.Mutex
	var derive, merge, score []float64
	var busy time.Duration
	total := fleet.NewAggregate()
	for j := range nb {
		opts := fleetOptions(seed, j)
		l.tr.do("fleet.op", 0, 0, func(root int) {
			forEach(fleetBatch, 2, func(w, i int) {
				var sess fleet.Session
				dd := l.tr.do("fleet.derive", root, w, func(int) { sess = opts.Population.Session(opts.Seed, i) })
				opt, be := sessionOptions(sess)
				res, dr, ok := l.traceGoal("experiment.rungoal", root, w, opt, be)
				if ok {
					l.noteGoal(dr, res)
				}
				mu.Lock()
				derive = append(derive, us(dd))
				busy += dd + dr
				mu.Unlock()
			})
			merge = append(merge, us(l.tr.do("fleet.merge", root, 0, func(int) { total.Merge(results[j].Agg) })))
			score = append(score, ms(l.tr.do("fleet.scorecard", root, 0, func(int) { _ = results[j].ScorecardString(true) })))
		})
	}
	l.out["fleet.derive_us"] = median(derive)
	l.out["fleet.merge_us"] = median(merge)
	l.out["fleet.scorecard_ms"] = median(score)
	l.out["fleet.overhead_frac"] = 1 - float64(busy)/float64(2*runWall)
	return nil
}

// long runs the first long-session ops untraced, then traced.
func (l *ledger) long() error {
	n, seed := l.sz.long, l.c.seed
	a := readGoStats()
	plain := runLoop(longOp(seed), 2, n, 0, 0.5)
	a.report(readGoStats(), n, "long-session", l.out)
	if plain.Failed > 0 {
		return fmt.Errorf("long-session: %s", plain.Detail)
	}
	forEach(n, 2, func(w, i int) {
		l.tr.do("long-session.op", 0, w, func(root int) {
			be := new(error)
			if res, d, ok := l.traceGoal("experiment.rungoal", root, w, longOptions(seed, i), be); ok {
				l.noteGoal(d, res)
			}
		})
	})
	return nil
}

// allocs measures, serially, the heap bytes one RunGoal allocates across a
// fixed mix of chaos, fleet and long sessions.
func (l *ledger) allocs() {
	var opts []experiment.GoalOptions
	for i := range max(l.sz.chaos/25, 1) {
		opt, _ := chaosOptions(chaos.Generate(l.c.seed+int64(i)), true)
		opts = append(opts, opt)
	}
	fo := fleetOptions(l.c.seed, 0)
	for i := range min(16, fleetBatch) {
		opt, _ := sessionOptions(fo.Population.Session(fo.Seed, i))
		opts = append(opts, opt)
	}
	opts = append(opts, longOptions(l.c.seed, 0))
	var mb []float64
	for _, opt := range opts {
		a := readGoStats()
		if _, err := runGoal(opt); err != nil {
			continue
		}
		mb = append(mb, float64(readGoStats().alloc-a.alloc)/(1<<20))
	}
	l.out["experiment.rungoal_alloc_mb"] = mean(mb)
}

// figures times each odyssey-sim figure id as its own subprocess, at the
// trial count of the figures workload.
func (l *ledger) figures() error {
	for _, id := range figureIDs {
		var err error
		var out []byte
		d := l.tr.do("experiment."+id, 0, 0, func(int) {
			out, err = exec.Command(l.c.sim, "-figure", id, "-parallel", "2", "-trials", figureTrials).CombinedOutput()
		})
		if err != nil {
			return fmt.Errorf("odyssey-sim -figure %s: %v: %s", id, err, out)
		}
		l.out["experiment."+id+"_ms"] = ms(d)
	}
	return nil
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
