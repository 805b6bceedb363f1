package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for battery-goal: started with
// "battery-goal" as its first argument, it runs main on the arguments that
// follow instead of running the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "battery-goal" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// batteryGoal runs the command with args and returns its stdout, stderr and
// exit status.
func batteryGoal(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"battery-goal"}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("battery-goal %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestImpossibleSupplyOrGoalRejected: a supply that is not a finite positive
// number of joules (or, for the feasible band, too large to measure), or a
// negative goal, is a usage error — exit status 2 and
// one line on stderr naming the flag, with nothing on stdout. (A supply of
// zero or less would otherwise run on an unlimited external source and
// report a met goal with an absurd residual.)
func TestImpossibleSupplyOrGoalRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-joules", "0"},
		{"-joules", "-100"},
		{"-joules", "NaN"},
		{"-joules", "+Inf"},
		{"-joules", "3e10"}, // the feasible band's goal would overflow
		{"-goal", "26m", "-joules", "0"},
		{"-goal", "-5m"},
	} {
		stdout, stderr, code := batteryGoal(t, args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2; stderr:\n%s", args, code, stderr)
		}
		if stdout != "" {
			t.Errorf("%v wrote to stdout:\n%s", args, stdout)
		}
		flagName := args[len(args)-2]
		if msg := strings.TrimSpace(stderr); !strings.Contains(msg, flagName) || strings.Contains(msg, "\n") {
			t.Errorf("%v: stderr %q, want one line naming %s", args, msg, flagName)
		}
	}
}

// TestDisarmedRunDeterministic: with the supervisor and the offload plane
// disarmed, two same-seed goal runs print byte-identical reports that carry
// no trace of either plane.
func TestDisarmedRunDeterministic(t *testing.T) {
	args := []string{"-goal", "26m", "-seed", "7"}
	a, stderr, code := batteryGoal(t, args...)
	if code != 0 {
		t.Fatalf("%v: exit status %d; stderr:\n%s", args, code, stderr)
	}
	if b, _, _ := batteryGoal(t, args...); a != b {
		t.Fatalf("same-seed disarmed runs differ:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
	for _, plane := range []string{"supervis", "offload"} {
		if strings.Contains(strings.ToLower(a), plane) {
			t.Errorf("disarmed run mentions %q:\n%s", plane, a)
		}
	}
}

// TestArmedOffloadRunDeterministic: an armed offload run is byte-identical
// at the same seed and reports the energy charged to the offload principal.
func TestArmedOffloadRunDeterministic(t *testing.T) {
	args := []string{"-goal", "26m", "-seed", "7", "-offload", "3", "-offload-load", "0.5"}
	a, stderr, code := batteryGoal(t, args...)
	if code != 0 {
		t.Fatalf("%v: exit status %d; stderr:\n%s", args, code, stderr)
	}
	if b, _, _ := batteryGoal(t, args...); a != b {
		t.Fatalf("same-seed armed runs differ:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
	if !strings.Contains(a, "offload principal") {
		t.Fatalf("armed run reports no offload principal line:\n%s", a)
	}
}

// TestUnknownLadderRejected: an unknown -faults or -misbehave severity is a
// usage error — exit status 2, nothing on stdout, and one stderr line that
// lists the ladder's known names.
func TestUnknownLadderRejected(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		known string
	}{
		{[]string{"-goal", "26m", "-faults", "medium"}, "known: none mild mid severe"},
		{[]string{"-goal", "26m", "-misbehave", "medium"}, "known: none mild mid severe"},
		{[]string{"-faults", "bogus"}, "known: none mild mid severe"},
	} {
		stdout, stderr, code := batteryGoal(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2; stderr:\n%s", tc.args, code, stderr)
		}
		if stdout != "" {
			t.Errorf("%v wrote to stdout:\n%s", tc.args, stdout)
		}
		if msg := strings.TrimSpace(stderr); !strings.HasSuffix(msg, tc.known) || strings.Contains(msg, "\n") {
			t.Errorf("%v: stderr %q, want one line ending %q", tc.args, msg, tc.known)
		}
	}
}

// TestFaultedSupervisedRunDeterministic: a run under the mid fault plan and
// the mid misbehavior ladder prints byte-identical reports at the same
// seed, fault-plan and supervision lines included.
func TestFaultedSupervisedRunDeterministic(t *testing.T) {
	args := []string{"-goal", "26m", "-seed", "7", "-faults", "mid", "-misbehave", "mid"}
	a, stderr, code := batteryGoal(t, args...)
	if code != 0 {
		t.Fatalf("%v: exit status %d; stderr:\n%s", args, code, stderr)
	}
	if b, _, _ := batteryGoal(t, args...); a != b {
		t.Fatalf("same-seed faulted runs differ:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
	for _, line := range []string{`Fault plan "mid":`, `Supervision ("mid" ladder):`} {
		if !strings.Contains(a, line) {
			t.Errorf("faulted run reports no %q line:\n%s", line, a)
		}
	}
}
