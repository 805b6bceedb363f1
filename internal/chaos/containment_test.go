package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odyssey/internal/faults"
)

// The containment-plane self-tests: planted panics in every layer the
// fence guards (a process goroutine, kernel context, the sentinel audit
// itself), a planted livelock for the stall detector, the wall-clock
// deadline backstop, corpus hardening, and the journal's byte-identical
// kill-and-resume contract.

// plantedScenario is a generated scenario whose fault plan is replaced by
// one planted containment injector firing at 1s of virtual time.
func plantedScenario(seed int64, kind string) Scenario {
	sc := Generate(seed)
	sc.Faults = &faults.PlanSpec{
		Name: "planted-" + kind, Seed: 1,
		Injectors: []faults.InjectorSpec{{Kind: kind, MeanUp: faults.Dur(time.Second)}},
	}
	sc.Misbehave = nil
	return sc
}

// TestRunContainsProcessPanic: a panic on a process goroutine surfaces as
// a panic sentinel violation carrying the guilty process's identity and
// the panic site — not a crashed test binary.
func TestRunContainsProcessPanic(t *testing.T) {
	out, err := Run(plantedScenario(3, faults.KindTestProcPanic))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.Has(SentinelPanic) {
		t.Fatalf("process panic not contained:\n%s", out.Report.String())
	}
	detail := out.Report.String()
	for _, want := range []string{"planted-crasher", "planted test-proc-panic fired", "planted.go"} {
		if !strings.Contains(detail, want) {
			t.Errorf("triage detail missing %q:\n%s", want, detail)
		}
	}
}

// TestRunContainsKernelContextPanic: a panic from an event callback (no
// process identity to blame) is still contained and stamped as such.
func TestRunContainsKernelContextPanic(t *testing.T) {
	out, err := Run(plantedScenario(4, faults.KindTestPanic))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.Has(SentinelPanic) {
		t.Fatalf("kernel-context panic not contained:\n%s", out.Report.String())
	}
	if detail := out.Report.String(); !strings.Contains(detail, "planted test-panic fired") {
		t.Errorf("triage detail missing the panic value:\n%s", detail)
	}
}

// TestRunContainsLivelock: a zero-delay self-reschedule loop trips the
// kernel's stall detector and lands as a stall sentinel violation with the
// timing-structure snapshot.
func TestRunContainsLivelock(t *testing.T) {
	sc := plantedScenario(5, faults.KindTestLivelock)
	sc.StallBound = 50_000
	out, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.Has(SentinelStall) {
		t.Fatalf("livelock not contained:\n%s", out.Report.String())
	}
	if detail := out.Report.String(); !strings.Contains(detail, "virtual time stalled") {
		t.Errorf("stall detail missing the kernel snapshot:\n%s", detail)
	}
}

// TestRunContainsSentinelPanic: a crash inside the audit itself is triaged
// as a panic violation in the report the audit was producing.
func TestRunContainsSentinelPanic(t *testing.T) {
	sentinelHook = func(sc Scenario) {
		//odylint:allow panicfree planted containment self-test: the audit fence must observe a sentinel crash
		panic("planted audit bomb")
	}
	defer func() { sentinelHook = nil }()
	out, err := Run(Generate(6))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.Has(SentinelPanic) {
		t.Fatalf("audit panic not contained:\n%s", out.Report.String())
	}
	if detail := out.Report.String(); !strings.Contains(detail, "panic in sentinel audit: planted audit bomb") {
		t.Errorf("audit triage detail wrong:\n%s", detail)
	}
}

// TestDeadlineBackstop: the wall-clock deadline catches a hang no virtual
// detector can see, reporting it as a stall with the worker abandoned.
func TestDeadlineBackstop(t *testing.T) {
	out, err := runContained(Generate(10), time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.Has(SentinelStall) {
		t.Fatalf("deadline did not trip:\n%s", out.Report.String())
	}
	if detail := out.Report.String(); !strings.Contains(detail, "wall-clock deadline") {
		t.Errorf("deadline detail wrong:\n%s", detail)
	}
}

// TestSoakQuarantinesAndShrinksCrashers: a soak over a corpus holding a
// crasher, a livelocker, and a healthy scenario runs to completion,
// quarantines and shrinks both failures, and the shrunk repros still trip
// the same sentinel when replayed from their saved files.
func TestSoakQuarantinesAndShrinksCrashers(t *testing.T) {
	stall := plantedScenario(20, faults.KindTestLivelock)
	stall.StallBound = 50_000
	scs := []Scenario{
		plantedScenario(21, faults.KindTestProcPanic),
		stall,
		Generate(1), // healthy
	}
	dir := t.TempDir()
	sum, err := Soak(SoakOptions{Scenarios: scs, Shrink: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran != 3 {
		t.Fatalf("soak stopped early: ran %d of 3", sum.Ran)
	}
	if len(sum.Failures) != 2 {
		t.Fatalf("%d failures, want 2 (the planted crasher and livelocker)", len(sum.Failures))
	}
	wantSentinel := []string{SentinelPanic, SentinelStall}
	for i, f := range sum.Failures {
		if f.Err != nil {
			t.Fatalf("failure %d errored instead of being contained: %v", i, f.Err)
		}
		if !f.Report.Has(wantSentinel[i]) {
			t.Fatalf("failure %d missing %s sentinel:\n%s", i, wantSentinel[i], f.Report.String())
		}
		if f.Shrunk == nil || f.ShrunkPath == "" {
			t.Fatalf("failure %d was not shrunk and saved", i)
		}
		loaded, err := LoadScenario(f.ShrunkPath)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := Run(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if !replay.Report.Has(wantSentinel[i]) {
			t.Fatalf("shrunk repro %d no longer trips %s:\n%s", i, wantSentinel[i], replay.Report.String())
		}
		// The quarantined original must be in the corpus dir under its
		// content address.
		if filepath.Dir(f.Path) != dir || filepath.Base(f.Path) != f.Scenario.ID()+".json" {
			t.Errorf("failure %d quarantined at %s, want %s/%s.json", i, f.Path, dir, f.Scenario.ID())
		}
	}
}

// TestSoakJournalResumeByteIdentical is the chaos resume gate: a soak
// killed after two scenarios, resumed against its journal, must render a
// report byte-identical to an uninterrupted soak's — including the shrunk
// repro lines for contained crashes.
func TestSoakJournalResumeByteIdentical(t *testing.T) {
	stall := plantedScenario(25, faults.KindTestLivelock)
	stall.StallBound = 50_000
	scs := []Scenario{
		Generate(2), // healthy
		plantedScenario(26, faults.KindTestProcPanic),
		stall,
		Generate(3), // healthy
	}
	dir := t.TempDir()
	full, err := Soak(SoakOptions{Scenarios: scs, Shrink: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	full.WriteReport(&want)

	journal := filepath.Join(t.TempDir(), "soak.jsonl")
	polls := 0
	part, err := Soak(SoakOptions{
		Scenarios: scs, Shrink: true, Dir: dir, Journal: journal,
		Stop: func() bool { polls++; return polls > 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !part.Interrupted || part.NotRun != 2 || part.Ran != 2 {
		t.Fatalf("interrupted soak: ran=%d notrun=%d interrupted=%v, want 2/2/true",
			part.Ran, part.NotRun, part.Interrupted)
	}

	// A torn final line — the write a crash interrupted — is tolerated.
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":2,"id":"torn`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Soak(SoakOptions{Scenarios: scs, Shrink: true, Dir: dir, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 2 || res.Ran != 2 || !res.Complete() {
		t.Fatalf("resumed soak: replayed=%d ran=%d, want 2/2", res.Replayed, res.Ran)
	}
	var got bytes.Buffer
	res.WriteReport(&got)
	if got.String() != want.String() {
		t.Fatalf("resumed report is not byte-identical:\n--- resumed\n%s--- uninterrupted\n%s",
			got.String(), want.String())
	}

	// The resume cut the torn line before appending, so the entries it
	// wrote are whole and a second resume replays everything.
	res2, err := Soak(SoakOptions{Scenarios: scs, Shrink: true, Dir: dir, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Replayed != 4 || res2.Ran != 0 {
		t.Fatalf("second resume: replayed=%d ran=%d, want 4/0", res2.Replayed, res2.Ran)
	}
	var got2 bytes.Buffer
	res2.WriteReport(&got2)
	if got2.String() != want.String() {
		t.Fatal("fully-replayed report is not byte-identical")
	}
}

// TestContainmentCorpusSoakAndResume soaks the containment corpus (a
// planted process panic and a planted livelock among healthy scenarios):
// the soak must report exactly those two failures with shrunk repro
// commands, and a journal cut mid-run — header, two entries, and a torn
// line — must resume to a byte-identical report.
func TestContainmentCorpusSoakAndResume(t *testing.T) {
	scs, _, warnings, err := LoadCorpus(filepath.Join("testdata", "containment"))
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 || len(scs) < 3 {
		t.Fatalf("containment corpus: %d scenarios, warnings %v", len(scs), warnings)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "contain.jsonl")
	opts := SoakOptions{Scenarios: scs, Shrink: true, Dir: dir, Journal: path}
	full, err := Soak(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := full.ReportString()
	if !strings.Contains(want, "\nviolations: panic=1 stall=1\n") {
		t.Fatalf("containment soak did not report exactly panic=1 stall=1:\n%s", want)
	}
	if n := strings.Count(want, "\n  repro: go run ./cmd/odyssey-chaos -scenario "); n != 2 {
		t.Fatalf("containment soak reported %d repro commands, want 2:\n%s", n, want)
	}

	// Simulate a mid-run kill: keep the header and the first two entries,
	// then a torn line.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	cut := strings.Join(lines[:3], "") + `{"i":2,"id":"torn`
	if err := os.WriteFile(path, []byte(cut), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	res, err := Soak(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 2 || res.Ran != len(scs)-2 {
		t.Fatalf("resumed soak: replayed=%d ran=%d, want 2/%d", res.Replayed, res.Ran, len(scs)-2)
	}
	if got := res.ReportString(); got != want {
		t.Fatalf("resumed report is not byte-identical:\n--- resumed\n%s--- uninterrupted\n%s", got, want)
	}
}

// TestLoadScenarioRejectsUnrunnable: the one scenario loader behind
// -scenario replay and corpus loading rejects a file that would otherwise
// replay as a different run than its author meant — a misspelled key
// decoding to a zero supply, a non-positive goal, an application the
// workload does not know, anything but whitespace after the scenario — and
// names the file in the error.
func TestLoadScenarioRejectsUnrunnable(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string // want == "" means the file must load
	}{
		{"valid", `{"seed": 3, "goal": "2m0s", "initial_energy": 900, "apps": ["video", "web"]}`, ""},
		{"misspelled key", `{"seed": 3, "goal": "2m0s", "initail_energy": 900}`, `unknown field "initail_energy"`},
		{"negative goal", `{"seed": 3, "goal": "-2m0s", "initial_energy": 900}`, "goal=-2m0s"},
		{"missing goal", `{"seed": 3, "initial_energy": 900}`, "goal=0s"},
		{"zero energy", `{"seed": 3, "goal": "2m0s", "initial_energy": 0}`, "energy=0"},
		{"negative energy", `{"seed": 3, "goal": "2m0s", "initial_energy": -5}`, "energy=-5"},
		{"unknown app", `{"seed": 3, "goal": "2m0s", "initial_energy": 900, "apps": ["vidoe"]}`, `unknown application "vidoe"`},
		{"not json", `{seed: 3`, "not a scenario"},
		{"trailing garbage", `{"seed": 3, "goal": "2m0s", "initial_energy": 900}` + "\ntrailing garbage {\n", "data after the scenario"},
		{"two concatenated scenarios", `{"seed": 3, "goal": "2m0s", "initial_energy": 900}{"seed": 4, "goal": "2m0s", "initial_energy": 900}`, "data after the scenario"},
		{"trailing whitespace", `{"seed": 3, "goal": "2m0s", "initial_energy": 900, "apps": ["video", "web"]}` + "\n \t\r\n", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sc.json")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			sc, err := LoadScenario(path)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid scenario rejected: %v", err)
				}
				if time.Duration(sc.Goal) != 2*time.Minute || sc.InitialEnergy != 900 || len(sc.Apps) != 2 {
					t.Fatalf("decoded %+v", sc)
				}
				return
			}
			if err == nil {
				t.Fatalf("loaded %s, want an error containing %q", sc.Summary(), tc.want)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) || !strings.Contains(msg, path) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q, want one line naming %s and containing %q", msg, path, tc.want)
			}
		})
	}
}

// TestLoadCorpusSkipsMalformed: strays in the corpus dir — broken JSON,
// some other tool's output, non-runnable scenarios — are warnings, not
// load failures.
func TestLoadCorpusSkipsMalformed(t *testing.T) {
	dir := t.TempDir()
	valid := Generate(9)
	if _, err := valid.Save(dir); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"broken.json":     `{not json`,
		"foreign.json":    `{"widget": true, "count": 3}`,
		"unrunnable.json": `{"seed": 1}`,
		"notes.txt":       "scratch notes, not a scenario",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	scs, paths, warnings, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 || len(paths) != 1 {
		t.Fatalf("loaded %d scenarios, want 1 (the valid one)", len(scs))
	}
	if scs[0].ID() != valid.ID() {
		t.Fatalf("loaded scenario %s, want %s", scs[0].ID(), valid.ID())
	}
	if len(warnings) != 3 {
		t.Fatalf("%d warnings, want 3 (one per malformed .json):\n%s", len(warnings), strings.Join(warnings, "\n"))
	}
	for _, w := range warnings {
		if !strings.HasPrefix(w, "skipping ") {
			t.Errorf("warning %q missing the skip prefix", w)
		}
	}
}
