package experiment

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/hw"
	"odyssey/internal/sim"
	"odyssey/internal/stats"
)

// The trial scheduler: every run a figure needs — each (object, bar, trial)
// of a RunGrid cell, each fixed-fidelity run of Figure 15, dvs and
// quality, and each (arm, trial) of a goal sweep — is a task drawn from one
// process-wide budget and merged back in fixed index order, so the rendered
// tables are byte-identical to a serial run. Runs are embarrassingly
// parallel — each one builds a private rig (its own kernel, machine model,
// network, and viceroy) from a seed derived only from its indices — so
// tasks never share simulation state between goroutines (enforced by
// odylint's kernelctx kernel-sharing rule).

// sched holds the package-wide scheduler configuration. The experiment
// front-ends (cmd/odyssey-sim, cmd/battery-goal) set it from flags before
// running figures; until then tasks run one at a time.
var sched = struct {
	mu sync.RWMutex
	// slots is the task budget: a task holds one token while it runs, so
	// its capacity bounds the tasks running at once across every caller.
	slots    chan struct{}
	progress io.Writer
}{slots: make(chan struct{}, 1)}

// SetParallelism sets how many tasks may run at once, across every
// RunTasks caller in the process; values below 1 mean 1, the serial path.
// The setting never changes results: runs are merged in (object, bar,
// trial) or (arm, trial) index order either way. A call made while tasks
// run leaves them on the old budget and applies to later RunTasks calls.
func SetParallelism(n int) {
	sched.mu.Lock()
	defer sched.mu.Unlock()
	sched.slots = make(chan struct{}, max(n, 1))
}

// Parallelism returns the configured task budget (at least 1).
func Parallelism() int {
	return cap(taskSlots())
}

// taskSlots returns the current task budget.
func taskSlots() chan struct{} {
	sched.mu.RLock()
	defer sched.mu.RUnlock()
	return sched.slots
}

// SetProgress directs per-cell progress/timing lines to w; nil (the
// default) disables them. Lines go to w as they are produced, so with a
// parallel scheduler their order follows completion, not table order.
func SetProgress(w io.Writer) {
	sched.mu.Lock()
	defer sched.mu.Unlock()
	sched.progress = w
}

// progressf emits one progress line when a progress writer is configured.
// Progress is best-effort observability, so write errors are discarded.
func progressf(format string, args ...any) {
	sched.mu.Lock()
	defer sched.mu.Unlock()
	if sched.progress == nil {
		return
	}
	_, _ = fmt.Fprintf(sched.progress, format+"\n", args...)
}

// TaskPanic wraps a panic recovered from a task function run by RunTasks,
// identifying which task index died and where. RunTasks re-raises it on the
// caller's goroutine after every task has run, so one crashing task neither
// kills the process from a task goroutine nor silently drops the remaining
// tasks' results.
type TaskPanic struct {
	Index int
	Value any
	Stack string
}

func (e *TaskPanic) Error() string {
	return fmt.Sprintf("experiment: task %d panicked: %v", e.Index, e.Value)
}

// RunTasks executes fn(0..n-1), each call a task on its own goroutine, and
// returns when all have finished. Tasks start in index order, each once it
// holds a token of the process-wide budget (see SetParallelism), so
// concurrent callers together never run more than Parallelism() tasks at
// once; at a budget of 1 the tasks run one after another. Callers index
// their result slots by i, so completion order never affects output. The
// chaos soak and the fleet runner drive their batches through this budget.
//
// A task must not call RunTasks, directly or through sweep, a figure
// function or FeasibleBand: its inner tasks would wait forever for tokens
// that their caller, and every task like it, holds. Nor may a simulated
// process's body, which holds its kernel's baton and runs on its own
// coroutine stack, where a task's frame does not show. Either call panics
// instead, and an outer RunTasks re-raises that as a *TaskPanic. Call
// RunTasks from outside any task and any process, as sweep, FeasibleBand,
// chaos.Soak and fleet.Run do.
//
// A panic in fn is fenced: the remaining tasks still run, and the fault for
// the lowest panicking index is re-raised as a *TaskPanic from RunTasks
// itself — deterministic regardless of scheduling. Callers that want finer
// containment (the chaos soak quarantines per scenario) fence inside fn;
// this fence is the backstop that keeps one crash from ending the process.
func RunTasks(n int, fn func(i int)) {
	if onStack(taskFrame, procFrame) {
		//odylint:allow panicfree a nested call would deadlock on the task budget; fail fast instead
		panic("experiment: nested RunTasks call inside a task or a process body would wait forever for its caller's budget tokens")
	}
	var (
		wg      sync.WaitGroup
		faultMu sync.Mutex
		fault   *TaskPanic
	)
	slots := taskSlots()
	for i := 0; i < n; i++ {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				<-slots
				r := recover()
				if r == nil {
					return
				}
				st := sim.CallerStack(1)
				faultMu.Lock()
				if fault == nil || i < fault.Index {
					fault = &TaskPanic{Index: i, Value: r, Stack: st}
				}
				faultMu.Unlock()
			}()
			runTask(fn, i)
		}()
	}
	wg.Wait()
	if fault != nil {
		//odylint:allow panicfree fault transport: re-raising the lowest task's wrapped panic on the caller's goroutine
		panic(fault)
	}
}

// runTask runs task i. It is a named function, not a closure, so that
// RunTasks can recognise its frame on a stack.
func runTask(fn func(i int), i int) { fn(i) }

// taskFrame is runTask's name as stack frames report it, and procFrame the
// name of the sim function every process body runs under.
var (
	taskFrame = runtime.FuncForPC(reflect.ValueOf(runTask).Pointer()).Name()
	procFrame = reflect.TypeFor[sim.Proc]().PkgPath() + ".runProc"
)

// onStack reports whether any of the named functions has a frame on the
// calling goroutine's stack.
func onStack(names ...string) bool {
	pcs := make([]uintptr, 64)
	n := runtime.Callers(2, pcs)
	for n == len(pcs) { // the stack may be deeper than the buffer
		pcs = make([]uintptr, 2*len(pcs))
		n = runtime.Callers(2, pcs)
	}
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if slices.Contains(names, f.Function) {
			return true
		}
		if !more {
			return false
		}
	}
}

// sweep runs an arms x trials grid of runs as tasks (RunTasks) and returns
// the results indexed [arm][trial]. run(a, t) must derive everything from
// its indices, since runs execute concurrently; callers reduce the results
// serially in trial order, so output never depends on the budget width.
func sweep[R any](arms, trials int, run func(a, t int) R) [][]R {
	out := make([][]R, arms)
	for a := range out {
		out[a] = make([]R, trials)
	}
	RunTasks(arms*trials, func(i int) {
		out[i/trials][i%trials] = run(i/trials, i%trials)
	})
	return out
}

// trialResult is one trial's raw measurement, kept unaggregated so that the
// merge can reproduce the serial accumulation order exactly.
type trialResult struct {
	energy   float64 // joules from the workload's start to its return
	total    float64 // joules of the whole run, read when the kernel drains
	duration time.Duration
	before   map[string]float64 // per-principal energy before the workload
	after    map[string]float64 // per-principal energy at kernel drain
	wall     time.Duration      // host wall-clock cost (observability only)
}

// runTrial is the one fixed-fidelity executor: it builds a rig from seed
// with the given display zones (0 means 1), applies setup, runs workload as
// the "workload" process, and drives the kernel until it drains (or until a
// process stops it). setup and workload may share state through closures
// made for this run alone, since runs execute concurrently.
func runTrial(seed int64, zones int, setup Setup, workload Trial) trialResult {
	//odylint:allow detrand wall-clock timing is observability only; it never feeds the simulation
	wallStart := time.Now()
	if zones == 0 {
		zones = 1
	}
	rig := env.NewRig(seed, zones)
	if setup != nil {
		setup(rig)
	}
	var res trialResult
	rig.K.Spawn("workload", func(p *sim.Proc) {
		res.before = rig.M.Acct.EnergyByPrincipal()
		cp := rig.M.Acct.Checkpoint()
		start := p.Now()
		workload(rig, p)
		res.energy = cp.Since()
		res.duration = p.Now() - start
	})
	rig.K.Run(0)
	res.after = rig.M.Acct.EnergyByPrincipal()
	res.total = rig.M.Acct.TotalEnergy()
	//odylint:allow detrand wall-clock timing is observability only; it never feeds the simulation
	res.wall = time.Since(wallStart)
	return res
}

// aggregateCell folds per-trial results into a Cell using the exact
// floating-point accumulation order of the serial harness: trials in index
// order, each principal's delta divided by the trial count before adding.
func aggregateCell(trials int, rs []trialResult) Cell {
	energies := make([]float64, 0, trials)
	durations := make([]float64, 0, trials)
	breakdown := make(map[string]float64)
	for _, r := range rs {
		energies = append(energies, r.energy)
		durations = append(durations, r.duration.Seconds())
		for k, v := range r.after {
			breakdown[k] += (v - r.before[k]) / float64(trials)
		}
	}
	return Cell{
		Energy:    stats.Summarize(energies),
		Duration:  stats.Summarize(durations),
		Breakdown: breakdown,
	}
}

// cellWall sums the trials' host wall-clock costs — the cell's compute
// cost, independent of how the budget interleaved it with other cells.
func cellWall(rs []trialResult) time.Duration {
	var sum time.Duration
	for _, r := range rs {
		sum += r.wall
	}
	return sum.Round(time.Millisecond)
}

// FeasibleBand measures the battery-duration band goal-directed adaptation
// works within: how long the goal workload runs on the supply pinned at
// highest and at lowest fidelity — the endpoints the paper quotes (19:27
// and 27:06 for 12,000 J). Both runs get BandGoal's goal, which neither
// reaches, so each runs to depletion. The two pinned runs are independent
// simulations, so they run as two tasks.
func FeasibleBand(seed int64, initialEnergy float64) (hi, lo time.Duration) {
	goal, _ := BandGoal(initialEnergy)
	var out [2]time.Duration
	RunTasks(2, func(i int) {
		out[i] = RunGoal(GoalOptions{
			Seed:          seed,
			InitialEnergy: initialEnergy,
			Goal:          goal,
			Control:       [2]Control{PinHighest, PinLowest}[i],
		}).EndTime
	})
	return out[0], out[1]
}

// BandGoal is the goal of FeasibleBand's pinned runs on a supply: the time
// the reference profile's always-on Other draw alone would take to drain
// it. Every run draws at least Other, so none reaches this goal. ok is
// false when the goal plus RunGoal's horizon does not fit a time.Duration
// (a supply above about 2.9e10 J); goal is then the largest that does.
func BandGoal(initialEnergy float64) (goal time.Duration, ok bool) {
	limit := time.Duration(math.MaxInt64) - goalHorizon
	ns := initialEnergy / hw.ThinkPad560X().Other * float64(time.Second)
	if !(ns < float64(limit)) {
		return limit, false
	}
	return time.Duration(ns), true
}
