package main

import (
	"io"
	"testing"
	"time"

	power8 "repro"
)

// cheapSuite is a few fast paper experiments: the smoke test's stand-in
// for the 8-second quick suite.
func cheapSuite(t *testing.T) []power8.Experiment {
	var out []power8.Experiment
	for _, e := range power8.Experiments() {
		switch e.ID {
		case "table1", "table3", "figure3", "figure5":
			out = append(out, e)
		}
	}
	if len(out) != 4 {
		t.Fatalf("cheap suite has %d experiments", len(out))
	}
	return out
}

// TestSmokeEveryWorkload runs each workload's code for one unit at
// minimal length (the two paper-suite workloads on a cheap subset) and
// requires correct outputs and a complete result line, all in under 10 s.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	start := time.Now()
	suite := cheapSuite(t)
	for _, w := range []workload{
		{name: "suite-cold", setupReps: 3, setupBatch: 2, setup: func(uint64) (instance, error) { return newSuiteCold(suite), nil }},
		{name: "faults-des", setupReps: 3, setupBatch: 2, setup: func(seed uint64) (instance, error) { return newFaultsDES(seed), nil }},
		{name: "suite-warm", setupReps: 1, setupBatch: 1, setup: func(uint64) (instance, error) { return newSuiteWarm(suite) }},
		{name: "p8d-mixed", setupReps: 1, setupBatch: 1, setup: func(seed uint64) (instance, error) { return newP8dMixed(seed) }},
	} {
		res, err := measureWorkload(w, 1, 0, 0, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, present %v", w.name, m.Name, v, ok)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("smoke run took %v, want under 10s", el)
	}
}

// TestWarmPassDetectsADifferentReport makes sure the byte-identity
// check can fail.
func TestWarmPassDetectsADifferentReport(t *testing.T) {
	s, err := newSuiteWarm(cheapSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.primed[1] = append([]byte(nil), s.primed[0]...)
	if m := s.measure(0); len(m.failures) == 0 || len(m.failures) != len(m.latencies) {
		t.Errorf("altered primed report: %d of %d passes failed, want all", len(m.failures), len(m.latencies))
	}
}

func TestFlagErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "suite-cold", "-seconds", "0"},
		{"-workload", "suite-cold", "-trace", "2"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("p8bench %q exited %d, want 2", args, code)
		}
	}
}
