package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/chaos"
	"odyssey/internal/experiment"
	"odyssey/internal/faults"
	"odyssey/internal/fleet"
	"odyssey/internal/smartbattery"
	"odyssey/internal/workload"
)

// opResult is one op's outcome: a line that pins its simulated output (the
// golden digest hashes these), and whether it failed.
type opResult struct {
	line   string
	failed bool
	detail string
}

// workloadDef is one fixed stream of ops. Op i's inputs derive only from the
// seed and i, so a run's completed ops are always the prefix [0, n).
type workloadDef struct {
	name string
	why  string
	// clients is the number of closed-loop clients issuing ops; width is
	// the experiment worker pool inside one op. clients*width never exceeds
	// the two CPUs the benchmark is sized for.
	clients, width int
	// minOps is how many ops every run completes, however short --seconds
	// is; the golden digest covers exactly these. smokeOps replaces it in
	// -smoke runs.
	minOps, smokeOps int
	// tailQ is the percentile reported as op_tail_ms: the highest with at
	// least ten samples beyond it in a run of the default length. A figures
	// run has a handful of passes, too few for any tail, so it reports its
	// median.
	tailQ float64
	// seedless marks a workload whose output ignores --seed, so its golden
	// digest applies at every seed.
	seedless bool
	newOp    func(c *config) func(i int) opResult
}

var workloads = []*workloadDef{
	{
		name:    "chaos-soak",
		why:     "short adversarial sessions with every plane armed at random; rig set-up, event recording, the determinism re-run and the sentinel audit dominate",
		clients: 2, width: 1, minOps: 200, smokeOps: 6, tailQ: 0.99,
		newOp: func(c *config) func(int) opResult { return chaosOp(c.seed) },
	},
	{
		name:    "fleet",
		why:     "many device profiles through the same RunGoal path with recording, re-run and audit off; rig set-up, kernel and shard reduction dominate",
		clients: 1, width: 2, minOps: 10, smokeOps: 1, tailQ: 0.95,
		newOp: func(c *config) func(int) opResult { return fleetOp(c.seed) },
	},
	{
		name:    "long-session",
		why:     "3h15m bursty goal sessions where set-up is amortised; kernel dispatch, processor sharing, power integration and monitor ticks dominate",
		clients: 2, width: 1, minOps: 20, smokeOps: 2, tailQ: 0.95,
		newOp: func(c *config) func(int) opResult { return longOp(c.seed) },
	},
	{
		name:    "figures",
		why:     "the paper-reproduction path: odyssey-sim -figure all with many tiny fixed-fidelity trials, the serial goal loops and the 33-claim scorecard",
		clients: 1, width: 2, minOps: 1, smokeOps: 1, tailQ: 0.5, seedless: true,
		newOp: figuresOp,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q; known: %v", name, names)
}

// ops returns how many ops a run always completes.
func (w *workloadDef) ops(smoke bool) int {
	if smoke {
		return w.smokeOps
	}
	return w.minOps
}

// chaosOp runs scenario seed+i through the full sentinel suite, as one
// scenario of chaos.Soak does.
func chaosOp(seed int64) func(int) opResult {
	return func(i int) opResult {
		sc := chaos.Generate(seed + int64(i))
		out, err := chaos.Run(sc)
		if err != nil {
			return opResult{line: sc.ID() + " error\n", failed: true, detail: err.Error()}
		}
		r := opResult{line: fmt.Sprintf("%s met=%v residual=%x ledger=%x\n",
			out.Scenario.ID(), out.Result.Met, out.Result.Residual, out.Ledger.Total)}
		if !out.Report.OK() {
			r.failed, r.detail = true, out.Report.String()
		}
		return r
	}
}

// fleetBatch is the number of device-sessions in one fleet op.
const fleetBatch = 64

// fleetOptions is fleet op i: one fleet.Run over its own 64 sessions.
func fleetOptions(seed int64, i int) fleet.RunOptions {
	return fleet.RunOptions{Population: fleet.DefaultPopulation(), Seed: seed*1_000_003 + int64(i), Devices: fleetBatch}
}

func fleetOp(seed int64) func(int) opResult {
	return func(i int) opResult {
		res, err := fleet.Run(fleetOptions(seed, i))
		if err != nil {
			return opResult{line: "error\n", failed: true, detail: err.Error()}
		}
		r := opResult{line: res.Agg.Fingerprint()}
		if n := res.Agg.ContainedPanics + res.Agg.ContainedStalls; n > 0 {
			r.failed, r.detail = true, fmt.Sprintf("fleet op %d: %d contained session(s)", i, n)
		}
		return r
	}
}

// longOptions is long-session op i: the Figure 22 bursty run, a 2:45 goal
// extended by 30 minutes at the end of the first hour.
func longOptions(seed int64, i int) experiment.GoalOptions {
	return experiment.GoalOptions{
		Seed:          seed*1000 + int64(i),
		InitialEnergy: experiment.Figure22InitialEnergy,
		Goal:          2*time.Hour + 45*time.Minute,
		Bursty:        true,
		ExtendAt:      time.Hour,
		ExtendBy:      30 * time.Minute,
	}
}

func longOp(seed int64) func(int) opResult {
	return func(i int) opResult {
		res, err := runGoal(longOptions(seed, i))
		if err != nil {
			return opResult{line: "error\n", failed: true, detail: err.Error()}
		}
		return opResult{line: goalLine(res)}
	}
}

// goalLine renders a GoalResult's outcome with floats in exact hex form.
func goalLine(res experiment.GoalResult) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "met=%v end=%d residual=%x", res.Met, res.EndTime, res.Residual)
	apps := make([]string, 0, len(res.Adaptations))
	for name := range res.Adaptations {
		apps = append(apps, name)
	}
	sort.Strings(apps)
	for _, name := range apps {
		fmt.Fprintf(&b, " %s=%d/%x", name, res.Adaptations[name], res.MeanFidelity[name])
	}
	b.WriteByte('\n')
	return b.String()
}

// runGoal is experiment.RunGoal with a panic reported as an error, so one
// crashing session fails its op instead of the benchmark.
func runGoal(opt experiment.GoalOptions) (res experiment.GoalResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("RunGoal panicked: %v", r)
		}
	}()
	return experiment.RunGoal(opt), nil
}

// figureTrials is the odyssey-sim trial count per measurement. At the
// default five a pass takes about 6 s, so a 25 s run would hold four
// passes, too few for a steady median; at one it takes about 2 s, runs the
// same code, and still passes every scorecard claim.
const figureTrials = "1"

var claimsRE = regexp.MustCompile(`(?m)^(\d+)/(\d+) checks passed$`)

// figuresOp runs one odyssey-sim pass per op. Every pass must print the
// same bytes and, on a full pass, pass every scorecard claim. The peak RSS
// of the passes is kept in c.figRSSKiB.
func figuresOp(c *config) func(int) opResult {
	figs := "all"
	if c.smoke {
		figs = "fig4,fig2"
	}
	args := []string{"-figure", figs, "-parallel", "2", "-trials", figureTrials}
	var first string
	var mu sync.Mutex
	return func(i int) opResult {
		var out, errOut bytes.Buffer
		cmd := exec.Command(c.sim, args...)
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			return opResult{line: "error\n", failed: true, detail: fmt.Sprintf("odyssey-sim %v: %v: %s", args, err, errOut.String())}
		}
		sum := sha256.Sum256(out.Bytes())
		r := opResult{line: hex.EncodeToString(sum[:]) + "\n"}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			c.noteRSS(ru.Maxrss)
		}
		if !c.smoke {
			m := claimsRE.FindSubmatch(out.Bytes())
			if m == nil {
				return opResult{line: r.line, failed: true, detail: "odyssey-sim printed no scorecard"}
			}
			passed, _ := strconv.Atoi(string(m[1])) // the pattern matched digits
			total, _ := strconv.Atoi(string(m[2]))
			r.line = fmt.Sprintf("%s claims=%d/%d\n", hex.EncodeToString(sum[:]), passed, total)
			if passed != total {
				r.failed, r.detail = true, fmt.Sprintf("scorecard: %d/%d claims passed", passed, total)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if first == "" {
			first = r.line
		} else if r.line != first && !r.failed {
			r.failed, r.detail = true, "odyssey-sim output differs between passes"
		}
		return r
	}
}

// chaosOptions rebuilds the GoalOptions chaos.Run gives RunGoal for a
// scenario, so the traced run can time RunGoal alone and with planes
// disarmed. A plan that fails to materialize sets *buildErr.
func chaosOptions(sc chaos.Scenario, events bool) (experiment.GoalOptions, *error) {
	buildErr := new(error)
	opt := experiment.GoalOptions{
		Seed:          sc.Seed,
		InitialEnergy: sc.InitialEnergy,
		Goal:          time.Duration(sc.Goal),
		Bursty:        sc.Bursty,
		SmartBattery:  sc.SmartBattery,
		Peukert:       sc.Peukert,
		Supervise:     sc.Supervise,
		Apps:          sc.AppsOrAll(),
		StallBound:    sc.StallBound,
		RecordEvents:  events,
	}
	if o := sc.Offload; o != nil && o.Servers > 0 {
		opt.Offload = &experiment.OffloadConfig{Servers: o.Servers, Contention: o.Contention, NoHedge: o.NoHedge, Policy: o.Policy}
	}
	bindPlans(&opt, sc.Faults, sc.Misbehave, buildErr)
	return opt, buildErr
}

// sessionOptions rebuilds the GoalOptions the fleet runner gives RunGoal
// for a derived session.
func sessionOptions(sess fleet.Session) (experiment.GoalOptions, *error) {
	buildErr := new(error)
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
		opt.Offload = &experiment.OffloadConfig{Servers: sess.OffloadServers, Contention: sess.OffloadContention, NoHedge: sess.OffloadNoHedge}
	}
	bindPlans(&opt, sess.Faults, sess.Misbehave, buildErr)
	return opt, buildErr
}

// bindPlans materializes fault and misbehavior specs against each run's
// rig, as chaos and fleet do.
func bindPlans(opt *experiment.GoalOptions, fs, ms *faults.PlanSpec, buildErr *error) {
	if fs != nil && len(fs.Injectors) > 0 {
		spec := *fs
		opt.Faults = func(rig *env.Rig, bat *smartbattery.Battery, _ int64) *faults.Plan {
			pl, err := spec.Plan(rig.K, chaos.BindRig(rig, bat, nil))
			if err != nil {
				*buildErr = err
				return nil
			}
			return pl
		}
	}
	if ms != nil && len(ms.Injectors) > 0 {
		spec := *ms
		opt.Misbehave = func(apps *workload.Apps, _ int64) *faults.Plan {
			pl, err := spec.Plan(apps.Rig.K, chaos.BindRig(apps.Rig, nil, apps))
			if err != nil {
				*buildErr = err
				return nil
			}
			return pl
		}
	}
}
