package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for odyssey-sim: started with
// "odyssey-sim" as its first argument, it runs main on the arguments that
// follow instead of running the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "odyssey-sim" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// expectUsageError runs odyssey-sim with args and checks the usage-error
// contract: exit status 2 and one stderr line containing want, with nothing
// on stdout.
func expectUsageError(t *testing.T, want string, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"odyssey-sim"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("%v: %v, want exit status 2; stderr:\n%s", args, err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("%v wrote to stdout:\n%s", args, stdout.String())
	}
	if msg := strings.TrimSpace(stderr.String()); !strings.Contains(msg, want) || strings.Contains(msg, "\n") {
		t.Errorf("%v: stderr %q, want one line containing %q", args, msg, want)
	}
}

// TestTrialsBelowOneRejected: a trial count below one is a usage error, like
// an unknown figure id — exit status 2 and a one-line message on stderr, with
// nothing on stdout (not NaN met rates, and not a makeslice panic).
func TestTrialsBelowOneRejected(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		expectUsageError(t, "-trials", "-figure", "fig20", "-trials", n)
	}
}

// TestScenarioRejectsUnrunnable: -scenario replays only a runnable scenario.
// A misspelled key, a non-positive goal, an unknown application or data
// after the scenario is a usage error naming the file, not a replay that
// reports a false violation, a pass, or a panic stack.
func TestScenarioRejectsUnrunnable(t *testing.T) {
	for name, body := range map[string]string{
		"misspelled-key": `{"seed": 3, "goal": "2m0s", "initail_energy": 900}`,
		"negative-goal":  `{"seed": 3, "goal": "-2m0s", "initial_energy": 900}`,
		"unknown-app":    `{"seed": 3, "goal": "2m0s", "initial_energy": 900, "apps": ["vidoe"]}`,
		"trailing-data":  `{"seed": 3, "goal": "2m0s", "initial_energy": 900}` + "\ntrailing garbage {\n",
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		expectUsageError(t, path, "-scenario", path)
	}
}
