package main

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	power8 "repro"
)

// TestBenchmarkJSONIsCurrent keeps the checked-in BENCHMARK.json equal
// to the definition in this package; regenerate it with -spec.
func TestBenchmarkJSONIsCurrent(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: run `bash cmd/p8bench/run.sh -spec BENCHMARK.json ...` or write specJSON()")
	}
}

func TestExperimentIDsMatchTheRegistry(t *testing.T) {
	var ids []string
	for _, e := range append(power8.Experiments(), power8.FaultExperiments()...) {
		ids = append(ids, e.ID)
	}
	if !reflect.DeepEqual(ids, experimentIDs) {
		t.Errorf("registry ids %v, benchmark ids %v", ids, experimentIDs)
	}
}

// TestSpecWithinLimits checks the limits a benchmark definition must
// respect: names, units, counts, bounds and the set-up metric.
func TestSpecWithinLimits(t *testing.T) {
	s := spec()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if u != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	maxBound := 0.0
	for _, m := range s.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(s.PerLayer))
	}
	for _, m := range s.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	setup := s.EndToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup metric %+v must be setup_s in s, lower, with the largest bound", setup)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
}
