package power8

// Tests for the hardened harness: panic isolation and the
// reproducibility of fault-degraded runs.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
)

// TestRunSuiteIsolatesFailures is the hardening acceptance check: with
// one experiment forced to panic, the suite still returns every report
// in order. The sabotaged one FAILs with a diagnostic; the real ones
// running beside it, figure6 (the walker) and figure4 (the DES), render
// exactly their testdata/quick-paper.golden blocks.
func TestRunSuiteIsolatesFailures(t *testing.T) {
	byID := func(id string) Experiment {
		e, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		return e
	}
	panics := Experiment{ID: "panics", Title: "injected panic",
		Run: func(*experiments.Context) *experiments.Report {
			panic("injected failure")
		}}
	suite := []Experiment{panics, byID("figure6"), byID("figure4")}
	root := NewStatsRegistry("test")
	reports := RunSuite(suite, NewE870(), RunOptions{Quick: true, Stats: root})
	if len(reports) != len(suite) {
		t.Fatalf("got %d reports, want %d", len(reports), len(suite))
	}
	for i, rep := range reports {
		if rep.ID != suite[i].ID {
			t.Errorf("report %d is %q, want %q (suite order)", i, rep.ID, suite[i].ID)
		}
		switch rep.ID {
		case panics.ID:
			if !rep.Failed() || !strings.Contains(rep.Err, "injected failure") {
				t.Errorf("%s: want recovered panic diagnostic, got %q", rep.ID, rep.Err)
			}
			if !strings.Contains(rep.Err, "goroutine") {
				t.Errorf("%s: panic diagnostic carries no stack: %q", rep.ID, rep.Err)
			}
		default:
			if got, want := goldenText([]*Report{rep}), goldenBlock(t, "quick-paper.golden", rep.ID); got != want {
				t.Errorf("%s beside the sabotaged experiment:\n  got:\n%s\n  golden:\n%s", rep.ID, got, want)
			}
		}
	}
	h := root.Child("harness")
	if got := h.Counter("panics_recovered").Load(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
}

// TestFaultSuiteDeterministic: the same fault seed yields bit-identical
// degraded reports, run to run and regardless of worker count, shard
// count and instrumentation. The sequential instrumented run matches
// testdata/quick-degradation-seed42.golden and its counters match
// testdata/quick-degradation-seed42-counters.golden; under -update it
// rewrites both.
func TestFaultSuiteDeterministic(t *testing.T) {
	plan := fault.Random(42, E870Spec(), 5)
	if reflect.DeepEqual(plan, fault.Random(7, E870Spec(), 5)) {
		t.Fatal("different seeds produced identical plans")
	}
	if !reflect.DeepEqual(plan, fault.Random(42, E870Spec(), 5)) {
		t.Fatal("same seed produced different plans")
	}
	a := RunSuite(FaultExperiments(), NewE870(), RunOptions{
		Quick: true, Workers: 2, Faults: plan,
	})
	b := RunSuite(FaultExperiments(), NewE870(), RunOptions{
		Quick: true, Workers: 1, Faults: plan, Shards: testShards, Stats: NewStatsRegistry("run"),
	})
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("report counts differ: %d vs %d", len(a), len(b))
	}
	checkGolden(t, "quick-degradation-seed42.golden", goldenText(b), true)
	checkGolden(t, "quick-degradation-seed42-counters.golden", counterText(t, b), true)
	for i := range a {
		if a[i].Failed() || b[i].Failed() {
			t.Fatalf("%s: degraded run failed: %q %q", a[i].ID, a[i].Err, b[i].Err)
		}
		if !reflect.DeepEqual(a[i].Lines, b[i].Lines) {
			t.Errorf("%s: degraded report lines differ between runs", a[i].ID)
		}
		if !reflect.DeepEqual(a[i].Checks, b[i].Checks) {
			t.Errorf("%s: degraded report checks differ between runs", a[i].ID)
		}
		if !a[i].Passed() {
			for _, c := range a[i].Checks {
				if !c.Pass() {
					t.Errorf("%s: %s", a[i].ID, c.String())
				}
			}
		}
	}
}
