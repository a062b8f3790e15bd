package power8

// Tests for the observed harness: per-experiment counter scopes must be
// deterministic run to run, and a parallel run must put exactly the same
// counters in each experiment's scope as a sequential run — the
// isolation property that stops concurrent experiments from smearing
// counts into each other's registries.

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// observedSuite runs the quick paper suite instrumented on workers
// goroutines, each experiment in its own child scope of a fresh root.
func observedSuite(m *Machine, workers int) []*Report {
	return RunSuite(Experiments(), m, RunOptions{Quick: true, Workers: workers, Stats: NewStatsRegistry("run")})
}

func TestRunObservedAttachesStats(t *testing.T) {
	m := NewE870()
	exp, ok := experiments.ByID("figure2")
	if !ok {
		t.Fatal("figure2 not registered")
	}
	rep := RunSuite([]Experiment{exp}, m, RunOptions{Quick: true, Workers: 1, Stats: NewStatsRegistry("run")})[0]
	if rep.Stats == nil {
		t.Fatal("observed run left Report.Stats nil")
	}
	cm := rep.Stats.CounterMap()
	if cm["figure2/walker/accesses"] == 0 {
		t.Errorf("figure2 scope has no walker accesses: %v", cm)
	}
	// Uninstrumented runs must not grow a snapshot.
	plain, err := Run("figure2", m, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats != nil {
		t.Error("plain Run attached Stats")
	}
}

// statsByID collects each report's counter map keyed by experiment id.
func statsByID(t *testing.T, reps []*Report) map[string]map[string]uint64 {
	t.Helper()
	out := map[string]map[string]uint64{}
	for _, r := range reps {
		if r.Stats == nil {
			t.Fatalf("%s: observed run left Stats nil", r.ID)
		}
		out[r.ID] = r.Stats.CounterMap()
	}
	return out
}

// TestRunAllObservedParallelSmoke drives the instrumented suite once
// with concurrent workers sharing one Machine. It is the target of the
// CI race job's `go test -race -short -run Observed .` pass: the
// triple-run determinism test below is too slow under the race
// detector, but a single concurrent instrumented pass already exercises
// every scoped-registry write, counter flush and team-instrumentation
// path under contention.
func TestRunAllObservedParallelSmoke(t *testing.T) {
	m := NewE870()
	for _, r := range observedSuite(m, 8) {
		if r.Stats == nil {
			t.Fatalf("%s: observed run left Stats nil", r.ID)
		}
	}
}

func TestObservedCountersDeterministicAndIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite three times")
	}
	m := NewE870()
	seq1 := statsByID(t, observedSuite(m, 1))
	seq2 := statsByID(t, observedSuite(m, 1))
	par := statsByID(t, observedSuite(m, 8))

	// Determinism: two identical sequential runs produce identical
	// counter values, experiment by experiment.
	for id, c1 := range seq1 {
		if !reflect.DeepEqual(c1, seq2[id]) {
			t.Errorf("%s: counters differ between two sequential runs:\n  1: %v\n  2: %v",
				id, c1, seq2[id])
		}
	}
	// Isolation: a concurrent run scopes each experiment's counters
	// exactly as a sequential run does — nothing leaks across
	// concurrently running experiments.
	for id, c1 := range seq1 {
		if !reflect.DeepEqual(c1, par[id]) {
			t.Errorf("%s: counters differ between sequential and parallel runs:\n  seq: %v\n  par: %v",
				id, c1, par[id])
		}
	}
}
