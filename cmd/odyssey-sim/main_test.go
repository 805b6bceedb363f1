package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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

// TestTrialsBelowOneRejected: a trial count below one is a usage error, like
// an unknown figure id — exit status 2 and a one-line message on stderr, with
// nothing on stdout (not NaN met rates, and not a makeslice panic).
func TestTrialsBelowOneRejected(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		cmd := exec.Command(os.Args[0], "odyssey-sim", "-figure", "fig20", "-trials", n)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-trials %s: %v, want exit status 2; stderr:\n%s", n, err, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-trials %s wrote to stdout:\n%s", n, stdout.String())
		}
		if msg := strings.TrimSpace(stderr.String()); !strings.Contains(msg, "-trials") || strings.Contains(msg, "\n") {
			t.Errorf("-trials %s: stderr %q, want one line naming -trials", n, msg)
		}
	}
}
