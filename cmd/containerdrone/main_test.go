package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"containerdrone"
)

// TestMain runs the test binary as the containerdrone command when
// CONTAINERDRONE_RUN_MAIN is set, so tests can exec the real CLI and
// read its exit code and output files.
func TestMain(m *testing.M) {
	if os.Getenv("CONTAINERDRONE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI execs the command with args in dir and returns its exit code
// and combined output.
func runCLI(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CONTAINERDRONE_RUN_MAIN=1")
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

// TestRefusedCampaignKeepsRecordsFile pins that a campaign refused by
// validation exits 2 before it touches -records-csv: an existing file
// keeps its content.
func TestRefusedCampaignKeepsRecordsFile(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.csv")
	const old = "old content\n"
	if err := os.WriteFile(rec, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runCLI(t, dir, "-scenario", "gps-spoof", "-sweep", "bus.capacity=2e9,0",
		"-records-csv", "rec.csv", "-duration", "1s")
	if code != 2 || !strings.Contains(out, "bus capacity") {
		t.Fatalf("exit %d, output %q; want exit 2 naming the bad bus capacity", code, out)
	}
	got, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != old {
		t.Fatalf("rec.csv holds %q after a refused campaign, want %q", got, old)
	}
}

// TestCampaignWritesRecordsFile is the accepted counterpart: a valid
// 2-point campaign replaces the file with the streamed rows, which
// must equal WriteRecordsCSV over the records the -json report holds.
func TestCampaignWritesRecordsFile(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.csv")
	if err := os.WriteFile(rec, []byte("old content\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runCLI(t, dir, "-scenario", "baseline", "-sweep", "wind=0,1",
		"-records-csv", "rec.csv", "-json", "res.json", "-duration", "1s")
	if code != 0 {
		t.Fatalf("exit %d, output %q; want 0", code, out)
	}
	got, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(got)), "\n"); len(lines) != 3 {
		t.Fatalf("rec.csv has %d lines, want a header and 2 rows:\n%s", len(lines), got)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "res.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res containerdrone.CampaignResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteRecordsCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed rec.csv differs from the JSON's records:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

// TestRefusalExitsTwo pins that a request the CLI refuses exits 2,
// whether it asks for one flight or a campaign, and names the cause.
func TestRefusalExitsTwo(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "nosuch"}, "nosuch"},
		{[]string{"-scenario", "nosuch", "-runs", "2"}, "nosuch"},
		{[]string{"-set", "bogus=1"}, "bogus"},
		{[]string{"-sweep", "bogus=1"}, "bogus"},
		{[]string{"-sweep", "wind"}, "wind"},
		{[]string{"-set", "wind"}, "key=value"},
		{[]string{"-set", "wind=fast"}, "wind=fast"},
		{[]string{"-runs", "2", "-csv", "t.csv"}, "single-run"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		code, out := runCLI(t, dir, append(c.args, "-duration", "1s")...)
		if code != 2 || !strings.Contains(out, c.want) {
			t.Errorf("%v: exit %d, output %q; want exit 2 naming %q", c.args, code, out, c.want)
		}
	}
}
