package experiments

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/machine"
	"repro/internal/obs"
)

// runShardedVariant runs one experiment with a given shard count and an
// observed registry (the DES cross-checks only run when ctx.Obs is set)
// and returns the report plus the des scope's counters.
func runShardedVariant(t *testing.T, e Experiment, shards int) (*Report, map[string]uint64) {
	t.Helper()
	reg := obs.NewRegistry("t")
	ctx := &Context{Machine: machine.New(arch.E870()), Quick: true, Obs: reg, Shards: shards}
	rep := e.Run(ctx)
	counters := map[string]uint64{}
	for _, c := range reg.Child("des").Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	return rep, counters
}

// TestExperimentsShardCountInvariant is the report-level identity
// contract: figure4 (the DES cross-check) and deg-plan (healthy-vs-
// degraded DES rows) must render byte-identical lines and checks at
// every shard count. Running the 8-shard variants here also puts the
// sharded drivers under CI's race-detector job (go test -race
// ./internal/...), covering the Team workers, the SPSC mailboxes and
// the barrier exchange.
func TestExperimentsShardCountInvariant(t *testing.T) {
	fig4, ok := ByID("figure4")
	if !ok {
		t.Fatal("figure4 missing from registry")
	}
	var degPlan Experiment
	for _, e := range DegradationSuite() {
		if e.ID == "deg-plan" {
			degPlan = e
		}
	}
	if degPlan.Run == nil {
		t.Fatal("deg-plan missing from degradation suite")
	}

	for _, e := range []Experiment{fig4, degPlan} {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			ref, refCounters := runShardedVariant(t, e, 1)
			if !ref.Passed() {
				t.Fatalf("sequential reference did not pass: %s", ref.Status())
			}
			for _, shards := range []int{2, 8} {
				rep, counters := runShardedVariant(t, e, shards)
				if len(rep.Lines) != len(ref.Lines) {
					t.Fatalf("%d shards: %d lines, sequential %d", shards, len(rep.Lines), len(ref.Lines))
				}
				for i := range rep.Lines {
					if rep.Lines[i] != ref.Lines[i] {
						t.Errorf("%d shards, line %d:\n  got  %q\n  want %q", shards, i, rep.Lines[i], ref.Lines[i])
					}
				}
				if len(rep.Checks) != len(ref.Checks) {
					t.Fatalf("%d shards: %d checks, sequential %d", shards, len(rep.Checks), len(ref.Checks))
				}
				for i := range rep.Checks {
					if rep.Checks[i] != ref.Checks[i] {
						t.Errorf("%d shards, check %d: %+v != %+v", shards, i, rep.Checks[i], ref.Checks[i])
					}
				}
				// The barrier machinery adds its own counters (rounds,
				// mailbox traffic); the simulation's observable totals
				// must not move.
				for _, name := range []string{"events", "scheduled", "completions"} {
					if counters[name] != refCounters[name] {
						t.Errorf("%d shards: des/%s = %d, sequential %d", shards, name, counters[name], refCounters[name])
					}
				}
			}
		})
	}
}

// Status summarizes the report for rendering: "ok", "MISMATCH" (ran
// but a check failed) or "FAILED" (did not complete).
func (r *Report) Status() string {
	switch {
	case r.Failed():
		return "FAILED"
	case !r.Passed():
		return "MISMATCH"
	default:
		return "ok"
	}
}
