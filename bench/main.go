// Command bench is the repository's benchmark: four fixed workloads that
// drive the simulator the way its users do, the end-to-end metrics each
// run reports, and a traced run that times every layer from outside.
//
// Build and run it through bench/run.sh from the root of the repository:
//
//	bash bench/run.sh --workload chaos-soak --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload fleet --trace 1      # per-layer metrics + trace
//	bash bench/run.sh --all --out a.json              # every workload once
//	bash bench/run.sh --compare a.json b.json         # regression check
//	bash bench/run.sh --bless                         # rewrite bench/golden.json
//
// A run prints `workload metric value unit` lines, then, as the last line
// of standard output, one JSON object with the keys correct, attempted,
// failed and metrics. See bench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"odyssey/internal/experiment"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	sim      string // odyssey-sim binary
	traceOut string
	smoke    bool // tiny sizes, for the smoke test
	probe    bool // child: stop after set-up

	rssMu     sync.Mutex
	figRSSKiB int64
}

func (c *config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func (c *config) noteRSS(kib int64) {
	c.rssMu.Lock()
	defer c.rssMu.Unlock()
	c.figRSSKiB = max(c.figRSSKiB, kib)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	c := &config{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload to run (chaos-soak, fleet, long-session, figures)")
	fs.Int64Var(&c.seed, "seed", goldenSeed, "workload seed")
	fs.Float64Var(&c.seconds, "seconds", 25, "how long one run measures")
	fs.IntVar(&c.trace, "trace", 0, "1 runs the traced layer ledger instead of the end-to-end measurement")
	fs.StringVar(&c.sim, "sim", ".bench_build/odyssey-sim", "odyssey-sim binary")
	fs.StringVar(&c.traceOut, "trace-out", "", "Chrome trace-event file of a traced run (default trace-<workload>.json beside -sim)")
	fs.BoolVar(&c.smoke, "smoke", false, "tiny sizes (smoke test)")
	child := fs.Bool("child", false, "internal: run one workload in this process")
	fs.BoolVar(&c.probe, "probe", false, "internal: with -child, stop after set-up")
	all := fs.Bool("all", false, "run every workload once and write -out")
	outPath := fs.String("out", "", "with -all, write the results here as JSON")
	compare := fs.Bool("compare", false, "compare two sets of -out files: bench -compare a.json[,a2.json...] b.json[,b2.json...]")
	bless := fs.Bool("bless", false, "rewrite bench/golden.json from the default seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		return compareSets(fs.Args(), "BENCHMARK.json")
	case *bless:
		err = blessGolden(c, filepath.Join("bench", "golden.json"))
	case *all:
		err = runAll(c, *outPath)
	case *child:
		err = runChild(c)
	default:
		err = runOne(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne is a single run, as the result contract specifies.
func runOne(c *config) error {
	w, err := workloadByName(c.workload)
	if err != nil {
		return err
	}
	var res result
	if c.trace == 1 {
		res, err = traced(c, w)
	} else {
		res, err = measure(c, w)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	printResult(w.name, res)
	if !res.Correct {
		return fmt.Errorf("%s: outputs are not correct", w.name)
	}
	return nil
}

func printResult(name string, res result) {
	for _, set := range [][]metric{endToEnd, perLayer} {
		for _, m := range set {
			if v, ok := res.Metrics[m.name]; ok {
				fmt.Printf("%s %s %.6g %s\n", name, m.name, v.Value, v.Unit)
			}
		}
	}
	b, _ := json.Marshal(res) // a struct of plain fields always encodes
	fmt.Println(string(b))
}

// traced runs the layer ledger and writes its spans.
func traced(c *config, w *workloadDef) (result, error) {
	l, err := runLedger(c)
	if err != nil {
		return result{}, err
	}
	tr := l.tr
	if err := checkSpans(tr.spans); err != nil {
		return result{}, err
	}
	path := c.traceOut
	if path == "" {
		path = filepath.Join(filepath.Dir(c.sim), "trace-"+w.name+".json")
	}
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d spans to %s\n", len(tr.spans), path)
	res := result{Correct: l.violations == 0, Failed: l.violations, Metrics: map[string]value{}}
	for _, s := range tr.spans {
		if s.parent == 0 {
			res.Attempted++
		}
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = value{l.out[m.name], m.unit}
	}
	return res, nil
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median.
const setupRuns = 5

// measure is one untraced run: four set-up probes, then one measuring
// process, each a fresh child (odyssey-sim itself for figures).
func measure(c *config, w *workloadDef) (result, error) {
	var setups []float64
	var lr loopResult
	var rssKiB int64
	if w.name == "figures" {
		for range setupRuns {
			t0 := time.Now()
			if out, err := exec.Command(c.sim, "-figure", "fig2,fig4", "-parallel", "2").CombinedOutput(); err != nil {
				return result{}, fmt.Errorf("odyssey-sim set-up: %v: %s", err, out)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		lr = runLoop(w.newOp(c), w.clients, w.ops(c.smoke), c.duration(), w.tailQ)
		rssKiB = c.figRSSKiB
	} else {
		for range setupRuns - 1 {
			s, _, _, err := spawn(c, w, true)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, s)
		}
		s, rep, rss, err := spawn(c, w, false)
		if err != nil {
			return result{}, err
		}
		setups, lr, rssKiB = append(setups, s), rep, rss
	}
	correct := lr.Failed == 0
	if want, applies := goldenDigest(c, w); applies && want != lr.Digest {
		fmt.Fprintf(os.Stderr, "bench: %s: golden digest mismatch over the first %d ops at seed %d: got %s, want %s\n",
			w.name, w.ops(c.smoke), c.seed, lr.Digest, want)
		correct = false
	}
	if lr.Detail != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: first failure: %s\n", w.name, lr.Detail)
	}
	m := map[string]float64{
		"setup_s":    median(setups),
		"ops_per_s":  float64(lr.Ops) / lr.WallS,
		"op_p50_ms":  lr.P50Ms,
		"op_tail_ms": lr.TailMs,
		"max_rss_mb": float64(rssKiB) / 1024,
	}
	res := result{Correct: correct, Attempted: lr.Ops, Failed: lr.Failed, Metrics: map[string]value{}}
	for _, e := range endToEnd {
		res.Metrics[e.name] = value{m[e.name], e.unit}
	}
	return res, nil
}

// spawn runs the workload in a fresh child process and returns the time
// from starting it to its first timed op (set-up plus one warm-up op), the
// child's measurement, and its peak RSS in KiB.
func spawn(c *config, w *workloadDef, probe bool) (float64, loopResult, int64, error) {
	var lr loopResult
	self, err := os.Executable()
	if err != nil {
		return 0, lr, 0, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds)}
	if probe {
		args = append(args, "-probe")
	}
	if c.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, lr, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, lr, 0, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var setup float64
	var readErr error
	if sc.Scan() && sc.Text() == "ready" {
		setup = time.Since(t0).Seconds()
		if !probe {
			if sc.Scan() {
				readErr = json.Unmarshal(sc.Bytes(), &lr)
			} else {
				readErr = errors.New("child exited without a result")
			}
		}
	} else {
		readErr = errors.New("child exited before set-up finished")
	}
	_, _ = io.Copy(io.Discard, stdout) // let the child finish writing before Wait
	if err := cmd.Wait(); err != nil {
		return 0, lr, 0, fmt.Errorf("child %v: %w", args, err)
	}
	if readErr != nil {
		return 0, lr, 0, readErr
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return setup, lr, rss, nil
}

// runChild is the child side of spawn: set up, run one untimed warm-up op,
// say "ready", then measure and print the loopResult as one JSON line.
func runChild(c *config) error {
	w, err := workloadByName(c.workload)
	if err != nil {
		return err
	}
	experiment.SetParallelism(w.width)
	// The warm-up op is the same at every seed, so set-up time does not
	// vary with the seed's inputs.
	if r := w.newOp(&config{seed: goldenSeed})(-1); r.failed {
		return fmt.Errorf("%s: warm-up op failed: %s", w.name, r.detail)
	}
	fmt.Println("ready")
	if c.probe {
		return nil
	}
	lr := runLoop(w.newOp(c), w.clients, w.ops(c.smoke), c.duration(), w.tailQ)
	return json.NewEncoder(os.Stdout).Encode(lr)
}

// runAll runs every workload once and writes their results to path.
func runAll(c *config, path string) error {
	out := struct {
		Seed    int64             `json:"seed"`
		Seconds float64           `json:"seconds"`
		Results map[string]result `json:"results"`
	}{c.seed, c.seconds, map[string]result{}}
	bad := 0
	for _, w := range workloads {
		res, err := measure(c, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(w.name, res)
		if !res.Correct {
			bad++
		}
		out.Results[w.name] = res
	}
	if path != "" {
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload(s) produced incorrect output", bad)
	}
	return nil
}
