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

// runSim runs odyssey-sim with args and returns its stdout and stderr,
// failing the test on a non-zero exit.
func runSim(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"odyssey-sim"}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v: %v; stderr:\n%s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestPassComputesEachFigureOnce: one invocation prints its figures in the
// requested order, byte for byte as separate invocations print them, while
// the scorecard reads the figures' runs instead of making them again: Figure
// 6's 24 grid cells each report once, not once for the figure and once for
// the scorecard. Each figure also reports its compute time.
func TestPassComputesEachFigureOnce(t *testing.T) {
	ids := []string{"fig6", "fig22", "check"}
	stdout, stderr := runSim(t, "-figure", strings.Join(ids, ","), "-trials", "1", "-parallel", "2", "-progress")
	var want strings.Builder
	for _, id := range ids {
		out, _ := runSim(t, "-figure", id, "-trials", "1", "-parallel", "2")
		want.WriteString(out)
	}
	if stdout != want.String() {
		t.Errorf("one pass printed\n%s\nseparate runs printed\n%s", stdout, want.String())
	}
	lines := func(prefix string) int {
		n := 0
		for _, line := range strings.Split(stderr, "\n") {
			if strings.HasPrefix(line, prefix) {
				n++
			}
		}
		return n
	}
	if n := lines("cell fig6 "); n != 24 {
		t.Errorf("%d cell fig6 progress lines, want 24 (one per cell)", n)
	}
	for _, id := range ids {
		if n := lines("figure " + id + ": computed in "); n != 1 {
			t.Errorf("%d compute-time lines for %s, want 1", n, id)
		}
	}
}
