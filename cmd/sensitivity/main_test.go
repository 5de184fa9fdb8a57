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
)

// TestMain doubles as the command: with SENSITIVITY_RUN_MAIN set, the
// test binary runs main on its arguments, so tests drive the real flag
// parsing, output and exit codes without building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("SENSITIVITY_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sensitivity runs the command with args, returning its stdout, stderr
// and exit code.
func sensitivity(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-log-level", "warn"}, args...)...)
	cmd.Env = append(os.Environ(), "SENSITIVITY_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

const (
	quickstart = "../../examples/quickstart/quickstart.xml"
	table1     = "../../internal/config/testdata/table1-12.xml"
)

// TestBinarySearch pins the critical WCET scaling of the default mode.
func TestBinarySearch(t *testing.T) {
	for _, tc := range []struct{ config, want string }{
		{quickstart, "critical WCET scaling: 166% (search bound 400%"},
		{table1, "critical WCET scaling: 400% (search bound 400%"},
	} {
		out, errOut, code := sensitivity(t, "-config", tc.config)
		if code != 0 || !strings.Contains(out, "baseline (100%): schedulable=true") || !strings.Contains(out, tc.want) {
			t.Errorf("%s: exit %d, stdout:\n%s\nstderr:\n%s\nwant %q", tc.config, code, out, errOut, tc.want)
		}
	}
}

// TestSweep pins the CI sweep: 8 points, all schedulable, and the 120%
// point served from the cache because its WCETs truncate to the unscaled
// configuration.
func TestSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	out, errOut, code := sensitivity(t, "-config", table1, "-sweep", "40:180:20", "-parallel", "4", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "sweep of 8 points, 4 parallel workers") || !strings.Contains(out, "largest schedulable point: 180%") {
		t.Errorf("stdout:\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc resultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Baseline || doc.CriticalPct != 180 || doc.Parallel != 4 || len(doc.Points) != 8 {
		t.Fatalf("result: %s", raw)
	}
	for i, p := range doc.Points {
		if p.Pct != int64(40+20*i) || !p.Schedulable {
			t.Errorf("point %d: %+v, want %d%% schedulable", i, p, 40+20*i)
		}
		if p.Pct == 120 && !p.CacheHit {
			t.Errorf("120%% point not served from the cache: %+v", p)
		}
	}
}

// TestPointsDuplicateCached: a repeated point and the prepended unscaled
// row.
func TestPointsDuplicateCached(t *testing.T) {
	out, errOut, code := sensitivity(t, "-config", quickstart, "-points", "166,167,166", "-parallel", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("stdout:\n%s", out)
	}
	for i, want := range []string{"100%  schedulable", "166%  schedulable", "167%  not schedulable", "166%  schedulable"} {
		row := lines[i+1]
		if !strings.Contains(row, want) || strings.HasSuffix(row, "(cached)") != (i == 3) {
			t.Errorf("row %d = %q, want %q cached only on the repeat", i, row, want)
		}
	}
	if lines[5] != "largest schedulable point: 166%" {
		t.Errorf("last line = %q", lines[5])
	}
}

// TestExitCodes covers the failure paths: an unschedulable baseline (3),
// malformed grids (2), an invalid configuration (6), and a point that
// fails inside a campaign (1) — here a scale whose WCET product
// overflows.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	overloaded := filepath.Join(dir, "overloaded.xml")
	invalid := filepath.Join(dir, "invalid.xml")
	qs, err := os.ReadFile(quickstart)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ path, from, to string }{
		{overloaded, `wcet="9"`, `wcet="19"`},
		{invalid, `deadline="10"`, `deadline="11"`},
	} {
		if err := os.WriteFile(f.path, bytes.Replace(qs, []byte(f.from), []byte(f.to), 1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unschedulable baseline", []string{"-config", overloaded}, 3, "baseline (100%): schedulable=false"},
		{"unschedulable baseline sweep", []string{"-config", overloaded, "-points", "50"}, 3, "largest schedulable point: 50%"},
		{"inverted sweep", []string{"-config", table1, "-sweep", "10:5:1"}, 2, "lo:hi:step with"},
		{"unparsable sweep", []string{"-config", table1, "-sweep", "abc"}, 2, "lo:hi:step"},
		{"non-positive point", []string{"-config", table1, "-points", "0,50"}, 2, "non-positive"},
		{"invalid configuration", []string{"-config", invalid}, 6, "deadline"},
		{"failed point", []string{"-config", quickstart, "-points", "9000000000000000000"}, 1, "overflows"},
	} {
		out, errOut, code := sensitivity(t, tc.args...)
		if code != tc.code || !strings.Contains(out+errOut, tc.want) {
			t.Errorf("%s: exit %d (want %d), stdout:\n%s\nstderr:\n%s\nwant mention of %q", tc.name, code, tc.code, out, errOut, tc.want)
		}
	}
}
