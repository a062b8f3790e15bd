package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors drives every exit-2 path: each prints one "p8sim:"
// line and the usage text, nothing on stdout, and never a goroutine
// dump — the model constructors panic on bad input, so a range the CLI
// fails to check would show up here as a dump.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		msg  string // prefix of the first stderr line
	}{
		{"undefined flag", []string{"-bogus"}, "flag provided but not defined: -bogus"},
		{"no query", nil, "Usage of p8sim:"},
		{"from", []string{"-latency", "-from", "8"}, "p8sim: -from chip 8 out of range [0,8)"},
		{"to", []string{"-latency", "-to", "-1"}, "p8sim: -to chip -1 out of range [0,8)"},
		{"mix", []string{"-stream", "-reads", "0", "-writes", "0"}, "p8sim: -reads/-writes must be non-negative with a positive sum, got 0:0"},
		{"threads", []string{"-fma", "-threads", "9"}, "p8sim: -threads 9 out of range [1,8] (SMT8 cores)"},
		{"lists", []string{"-random", "-lists", "0"}, "p8sim: -lists must be at least 1, got 0"},
		{"fmas", []string{"-fma", "-fmas", "0"}, "p8sim: -fmas must be at least 1, got 0"},
		{"oi", []string{"-roofline", "-oi", "0"}, "p8sim: -oi must be positive, got 0"},
		{"working set", []string{"-chase", "-ws", "128"}, "p8sim: -ws must cover at least two 128-byte lines for the chase to cycle, got 128"},
		{"shards", []string{"-random", "-shards", "3"}, "p8sim: -shards 3 does not divide the 8-socket topology (use 0 for auto or a divisor of 8)"},
		{"plan grammar", []string{"-random", "-faults", "bogus"}, `p8sim: fault: bad event "bogus": unknown kind "bogus"`},
		{"plan topology", []string{"-random", "-faults", "guard:99:2"}, `p8sim: fault: plan "guard:99:2" event 0 (guard:99:2): chip 99 out of range [0,8)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append([]string{"p8sim"}, tc.args...), &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, &stderr)
			}
			first, _, _ := strings.Cut(stderr.String(), "\n")
			if !strings.HasPrefix(first, tc.msg) {
				t.Errorf("first line %q, want prefix %q", first, tc.msg)
			}
			if !strings.Contains(stderr.String(), "Usage of p8sim:") {
				t.Error("usage text not printed")
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
