package experiments

// Concurrency-safety test for the experiment registry and the shared
// Machine: the simulated experiments run together on one Machine via
// parallel.Map, exactly as power8.RunSuite drives them. Under
// `go test -race ./internal/...` this verifies the machine model's
// read-only-after-construction contract, and the content comparison
// against a sequential pass verifies report determinism.

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
)

func TestSimulatedExperimentsRaceFree(t *testing.T) {
	// The fully simulated experiments: no host-kernel wall-clock in
	// their reports, so sequential and parallel output must be
	// byte-identical. The host-measured ones (figure9-12, table5-6) are
	// covered by the root package's TestParallelRunAllMatchesSequential.
	simulated := map[string]bool{
		"table1": true, "table2": true, "figure1": true, "figure2": true,
		"table3": true, "figure3": true, "table4": true, "figure4": true,
		"figure5": true, "figure6": true, "figure7": true, "figure8": true,
	}
	var subset []Experiment
	for _, e := range All() {
		if simulated[e.ID] {
			subset = append(subset, e)
		}
	}
	if len(subset) != len(simulated) {
		t.Fatalf("found %d simulated experiments in the registry, want %d", len(subset), len(simulated))
	}

	// The sequential pass runs instrumented, one registry per
	// experiment, so the comparison also proves counters never feed back
	// into report bodies, and figure2's walker counters can be pinned.
	m := machine.New(arch.E870())
	regs := make([]*obs.Registry, len(subset))
	seq := parallel.Map(1, subset, func(i int, e Experiment) *Report {
		regs[i] = obs.NewRegistry(e.ID)
		return e.Run(&Context{Machine: m, Quick: true, Obs: regs[i]})
	})
	par := parallel.Map(8, subset, func(_ int, e Experiment) *Report {
		return e.Run(&Context{Machine: m, Quick: true})
	})

	for i := range subset {
		s, p := seq[i], par[i]
		if s.ID != p.ID {
			t.Fatalf("report %d: id %q sequential vs %q parallel", i, s.ID, p.ID)
		}
		if !reflect.DeepEqual(s.Lines, p.Lines) {
			t.Errorf("%s: lines differ between sequential and parallel runs", s.ID)
		}
		if !reflect.DeepEqual(s.Checks, p.Checks) {
			t.Errorf("%s: checks differ between sequential and parallel runs", s.ID)
		}
		if !s.Passed() {
			for _, c := range s.Checks {
				if !c.Pass() {
					t.Errorf("%s: check failed: %s", s.ID, c.String())
				}
			}
		}
		if s.ID == "figure2" {
			checkFigure2Pinned(t, s, regs[i].Snapshot().CounterMap())
		}
	}
}

// checkFigure2Pinned holds the quick Figure 2 run to its exact printed
// curve and walker counters. Any change to a cache replacement decision,
// a fill order or the chase's visit order moves at least one of them.
func checkFigure2Pinned(t *testing.T, rep *Report, counters map[string]uint64) {
	t.Helper()
	wantLines := []string{
		"   working set     64 KiB pages     16 MiB pages",
		"        32 KiB          0.69 ns          0.69 ns",
		"       256 KiB          2.99 ns          2.99 ns",
		"         2 MiB          6.21 ns          6.21 ns",
		"         6 MiB          8.70 ns         12.18 ns",
		"        32 MiB         32.53 ns         38.87 ns",
		"       120 MiB         66.88 ns         73.70 ns",
		"       384 MiB        123.26 ns        106.90 ns",
	}
	if len(rep.Lines) < len(wantLines) || !reflect.DeepEqual(rep.Lines[:len(wantLines)], wantLines) {
		t.Errorf("figure2 curve moved:\n got %q\nwant %q", rep.Lines, wantLines)
	}
	for name, want := range map[string]uint64{
		"walker/accesses":        10553184,
		"walker/hit/l1":          512,
		"walker/hit/l2":          4096,
		"walker/hit/l3":          131072,
		"walker/hit/l3_remote":   500000,
		"walker/hit/l4":          500000,
		"walker/hit/dram":        9417504,
		"walker/xlate/erat_miss": 7901532,
		"walker/xlate/tlb_miss":  2267842,
	} {
		if got := counters["figure2/"+name]; got != want {
			t.Errorf("figure2 %s = %d, want %d", name, got, want)
		}
	}
}
