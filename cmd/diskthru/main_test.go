package main

import (
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test re-run this binary as the diskthru command:
// with DISKTHRU_TEST_MAIN=1 in its environment, the process runs the
// command on its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("DISKTHRU_TEST_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// command runs diskthru with args and returns its exit code and output.
func command(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DISKTHRU_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("diskthru %v: %v", args, err)
	return 0, ""
}

// A non-finite -sample-interval is a usage error (exit 2) raised
// before any output file exists; a non-positive one still selects the
// default period.
func TestSampleIntervalMustBeFinite(t *testing.T) {
	for _, v := range []string{"NaN", "+Inf", "-Inf"} {
		dir := t.TempDir()
		metrics := filepath.Join(dir, "m.csv")
		prof := filepath.Join(dir, "cpu.prof")
		code, out := command(t, "-experiment", "fig4", "-quick",
			"-metrics", metrics, "-cpuprofile", prof, "-sample-interval", v)
		if code != 2 {
			t.Errorf("-sample-interval %s: exit %d, want 2; output:\n%s", v, code, out)
		}
		for _, f := range []string{metrics, prof} {
			if _, err := os.Stat(f); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("-sample-interval %s: %s exists (stat error %v)", v, filepath.Base(f), err)
			}
		}
	}

	metrics := filepath.Join(t.TempDir(), "m.csv")
	if code, out := command(t, "-list", "-metrics", metrics, "-sample-interval", "0"); code != 0 {
		t.Errorf("-sample-interval 0: exit %d, want 0; output:\n%s", code, out)
	}
}
