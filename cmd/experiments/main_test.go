package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the test binary as the experiments command when
// EXPERIMENTS_RUN_MAIN is set, so tests can exec the real CLI and read
// its exit code.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI execs the command with args and returns its exit code and
// combined output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("exec %v: %v", args, err)
	return 0, ""
}

// TestDurationNeedsScenario pins that -duration is refused where it
// would be ignored: the tables fly fixed lengths. With -scenario it
// sets the flight length.
func TestDurationNeedsScenario(t *testing.T) {
	if code, out := runCLI(t, "-table1", "-duration", "1s"); code != 2 || !strings.Contains(out, "-duration") {
		t.Fatalf("-table1 -duration 1s: exit %d, output %q; want exit 2 naming -duration", code, out)
	}
	if code, out := runCLI(t, "-scenario", "kill", "-duration", "1s"); code != 0 {
		t.Fatalf("-scenario kill -duration 1s: exit %d, output %q; want 0", code, out)
	}
}

// TestScenarioExcludesTablesAndFigures pins that -scenario with a table,
// figure, matrix or -all is a usage error, exit 2 like the CLIs' others.
func TestScenarioExcludesTablesAndFigures(t *testing.T) {
	for _, other := range []string{"-all", "-table1", "-fig6", "-faults", "-swarm"} {
		if code, out := runCLI(t, "-scenario", "kill", other); code != 2 || !strings.Contains(out, "-scenario") {
			t.Errorf("-scenario kill %s: exit %d, output %q; want exit 2 naming -scenario", other, code, out)
		}
	}
}
