package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors drives every exit-2 path: each prints one "p8repro:"
// line (a bad plan adds the canned plan names), the usage text when
// the flags themselves are wrong, nothing on stdout, and never a
// goroutine dump.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	const canned = "p8repro: canned plans: guarded-cores, lost-channels, replay-storm, spared-abus, spared-xbus, worst-day"
	cases := []struct {
		name  string
		args  []string
		msg   string // prefix of the first stderr line
		next  string // the second stderr line, when not the usage text
		usage bool
	}{
		{"undefined flag", []string{"-bogus"}, "flag provided but not defined: -bogus", "", true},
		{"parallel", []string{"-parallel", "0"}, "p8repro: -parallel must be at least 1, got 0", "", true},
		{"kernelworkers", []string{"-kernelworkers", "-1"}, "p8repro: -kernelworkers must be >= 0, got -1", "", true},
		{"grainfactor", []string{"-grainfactor", "-2"}, "p8repro: -grainfactor must be >= 0, got -2", "", true},
		{"ablations with faults", []string{"-ablations", "-faultseed", "3"}, "p8repro: -ablations cannot be combined with -faults/-faultseed", "", true},
		{"faults and faultseed", []string{"-faults", "worst-day", "-faultseed", "2"}, "p8repro: -faults and -faultseed are mutually exclusive; pick one plan source", "", true},
		{"shards", []string{"-shards", "3"}, "p8repro: -shards 3 does not divide the 8-socket topology (use 0 for auto or a divisor of 8)", "", true},
		{"plan grammar", []string{"-faults", "bogus"}, `p8repro: fault: bad event "bogus": unknown kind "bogus"`, canned, false},
		{"plan topology", []string{"-faults", "guard:99:2"}, `p8repro: fault: plan "guard:99:2" event 0 (guard:99:2): chip 99 out of range [0,8)`, canned, false},
		{"unknown experiment", []string{"-exp", "table99"}, `p8repro: unknown experiment "table99" in suite "paper"`, "", false},
		{"unknown degradation experiment", []string{"-faults", "worst-day", "-exp", "table3"}, `p8repro: unknown experiment "table3" in suite "degradation"`, "", false},
		{"cache directory", []string{"-cachedir", filepath.Join(file, "sub"), "-exp", "table1"}, "p8repro: memo: cache directory:", "", false},
		{"cpu profile", []string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.pb"), "-exp", "table1"}, "p8repro:  open ", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append([]string{"p8repro"}, tc.args...), &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, &stderr)
			}
			lines := strings.Split(stderr.String(), "\n")
			if !strings.HasPrefix(lines[0], tc.msg) {
				t.Errorf("first line %q, want prefix %q", lines[0], tc.msg)
			}
			if tc.next != "" && (len(lines) < 2 || lines[1] != tc.next) {
				t.Errorf("second line %q, want %q", lines[1], tc.next)
			}
			if got := strings.Contains(stderr.String(), "Usage of p8repro:"); got != tc.usage {
				t.Errorf("usage printed = %v, want %v", got, tc.usage)
			}
			if strings.Contains(stderr.String(), "goroutine ") {
				t.Errorf("goroutine dump on stderr:\n%s", &stderr)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", &stdout)
			}
		})
	}
}
