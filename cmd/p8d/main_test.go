package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors drives every exit-2 path: each prints one "p8d:"
// line, the usage text when the flags themselves are wrong (not when a
// directory cannot be opened), and never a goroutine dump.
func TestUsageErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		args  []string
		msg   string // prefix of the first stderr line
		usage bool
	}{
		{"undefined flag", []string{"-bogus"}, "flag provided but not defined: -bogus", true},
		{"queue", []string{"-queue", "0"}, "p8d: -queue must be at least 1, got 0", true},
		{"jobworkers", []string{"-jobworkers", "0"}, "p8d: -jobworkers must be at least 1, got 0", true},
		{"cachemb", []string{"-cachemb", "0"}, "p8d: -cachemb must be at least 1, got 0", true},
		{"kernelworkers", []string{"-kernelworkers", "-1"}, "p8d: -kernelworkers must be >= 0, got -1", true},
		{"grainfactor", []string{"-grainfactor", "-1"}, "p8d: -grainfactor must be >= 0, got -1", true},
		{"fsync without journal", []string{"-fsync", "off"}, "p8d: -fsync requires -journal (there is no journal to sync)", true},
		{"fsync policy", []string{"-journal", filepath.Join(file, "j"), "-fsync", "maybe"}, `p8d: -fsync must be "always" or "off", got "maybe"`, true},
		{"cache directory", []string{"-cachedir", filepath.Join(file, "sub")}, "p8d: memo: cache directory:", false},
		{"journal directory", []string{"-journal", filepath.Join(file, "j")}, "p8d: journal: journal: create dir:", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := run(append([]string{"p8d"}, tc.args...), &stderr); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, &stderr)
			}
			first, _, _ := strings.Cut(stderr.String(), "\n")
			if !strings.HasPrefix(first, tc.msg) {
				t.Errorf("first line %q, want prefix %q", first, tc.msg)
			}
			if got := strings.Contains(stderr.String(), "Usage of p8d:"); got != tc.usage {
				t.Errorf("usage printed = %v, want %v", got, tc.usage)
			}
			if strings.Contains(stderr.String(), "goroutine ") {
				t.Errorf("goroutine dump on stderr:\n%s", &stderr)
			}
		})
	}
}
