package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for powerscope: started with
// "powerscope" as its first argument, it runs main on the arguments that
// follow instead of running the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "powerscope" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// powerscopeCmd runs the command with args and returns its stdout, stderr
// and exit status.
func powerscopeCmd(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"powerscope"}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("powerscope %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestBadInputRejectedBeforeRun: a profiling duration below one second, or
// an unknown workload name for either flag, is a usage error — exit status
// 2 and one line on stderr naming the flag, with nothing on stdout.
// (Unchecked, a negative duration panics in the kernel, zero prints 30 s of
// idle kernel labelled "0s", and a bad -diff-against name fails only after
// printing the first profile.)
func TestBadInputRejectedBeforeRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-seconds", "-5"}, "-seconds"},
		{[]string{"-seconds", "0"}, "-seconds"},
		{[]string{"-workload", "bogus"}, "-workload"},
		{[]string{"-workload", "video", "-diff-against", "bogus"}, "-diff-against"},
	} {
		stdout, stderr, code := powerscopeCmd(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2; stderr:\n%s", tc.args, code, stderr)
		}
		if stdout != "" {
			t.Errorf("%v wrote to stdout:\n%s", tc.args, stdout)
		}
		if msg := strings.TrimSpace(stderr); !strings.Contains(msg, tc.flag) || strings.Contains(msg, "\n") {
			t.Errorf("%v: stderr %q, want one line naming %s", tc.args, msg, tc.flag)
		}
	}
}

// TestShortProfileRuns: the smallest valid duration profiles the default
// workload and reports that duration.
func TestShortProfileRuns(t *testing.T) {
	stdout, stderr, code := powerscopeCmd(t, "-seconds", "2")
	if code != 0 {
		t.Fatalf("exit status %d; stderr:\n%s", code, stderr)
	}
	if want := "PowerScope profile: video workload, 2s of virtual time"; !strings.Contains(stdout, want) {
		t.Fatalf("stdout lacks %q:\n%s", want, stdout)
	}
}
