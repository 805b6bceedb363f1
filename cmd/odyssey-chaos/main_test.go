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

// TestMain lets the test binary stand in for odyssey-chaos: started with
// "odyssey-chaos" as its first argument, it runs main on the arguments that
// follow instead of running the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "odyssey-chaos" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestScenarioRejectsUnrunnable: -scenario replays only a runnable scenario.
// A misspelled key, a non-positive goal, an unknown application or data
// after the scenario is a usage error naming the file — exit status 2 and
// one stderr line, with nothing on stdout — not a replay that reports a
// false violation, a pass, or a panic stack.
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
		cmd := exec.Command(os.Args[0], "odyssey-chaos", "-scenario", path)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: %v, want exit status 2; stderr:\n%s", name, err, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s wrote to stdout:\n%s", name, stdout.String())
		}
		if msg := strings.TrimSpace(stderr.String()); !strings.Contains(msg, path) || strings.Contains(msg, "\n") {
			t.Errorf("%s: stderr %q, want one line naming %s", name, msg, path)
		}
	}
}
