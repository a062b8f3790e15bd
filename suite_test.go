package power8

// The quick paper suite runs at most twice per test binary: pass A
// sequential, pass B on 8 workers sharing one Machine, both
// instrumented. Every suite-level test reads those two passes and holds
// each to testdata/quick-paper.golden (report bodies) and
// testdata/quick-paper-counters.golden (per-experiment counters). Both
// goldens come from another process and another commit, so "pass A
// equals the golden" is the run-to-run determinism check, and "pass B
// equals the same goldens" is the check that a parallel run renders
// the same reports as a sequential one and scopes exactly the same
// counters to each experiment.

import (
	"sync"
	"testing"
)

// testShards pins the DES shard count of both passes. Reports are
// bit-identical at every legal shard count, but figure4's des/rounds,
// des/mailbox_msgs and per-shard counters follow the count, which 0
// would pick from GOMAXPROCS. 8 is the count EXPERIMENTS.md records.
const testShards = 8

// quickPass is one instrumented quick paper-suite run, made at most
// once per test binary.
type quickPass struct {
	name    string
	workers int
	once    sync.Once
	reports []*Report
}

var (
	seqPass = &quickPass{name: "sequential", workers: 1} // pass A
	parPass = &quickPass{name: "parallel", workers: 8}   // pass B
)

func (p *quickPass) run() []*Report {
	p.once.Do(func() {
		p.reports = RunSuite(Experiments(), NewE870(), RunOptions{
			Quick: true, Workers: p.workers, Shards: testShards, Stats: NewStatsRegistry("run"),
		})
	})
	return p.reports
}

// quickPasses returns the passes a suite-level test reads: A then B,
// or B alone under -short, which keeps the race job's
// `-short -run Observed` to one concurrent instrumented pass.
func quickPasses() []*quickPass {
	if testing.Short() {
		return []*quickPass{parPass}
	}
	return []*quickPass{seqPass, parPass}
}

// TestRunAllQuick: in both passes the reports come back in the paper's
// order, every check passes, and every report matches
// testdata/quick-paper.golden outside its host measurements. Host
// checks are held only in pass A: in pass B each host kernel shares the
// CPUs with seven other experiments, so its measured rate says nothing
// about the host. Under -update pass A rewrites the golden and pass B
// is held to it.
func TestRunAllQuick(t *testing.T) {
	for _, p := range quickPasses() {
		t.Run(p.name, func(t *testing.T) {
			reports := p.run()
			for i, e := range Experiments() {
				if i >= len(reports) || reports[i].ID != e.ID {
					t.Fatalf("report %d is not %q: the suite did not come back in paper order", i, e.ID)
				}
			}
			for _, rep := range reports {
				if rep.Failed() {
					t.Errorf("%s: %s", rep.ID, rep.Err)
				}
				for _, c := range rep.Checks {
					if !c.Pass() && (!c.Host || p == seqPass) {
						t.Errorf("%s: %s", rep.ID, c.String())
					}
				}
			}
			checkGolden(t, "quick-paper.golden", goldenText(reports), p == seqPass)
		})
	}
}

// TestParallelRunAllMatchesSequential: outside the lines and checks
// marked as host measurements, which legitimately differ between any
// two runs, pass B renders every report byte for byte as pass A
// (goldenText), in the paper's order. TestRunAllQuick holds each pass to
// the golden; this names the first report where the two passes part.
func TestParallelRunAllMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("reads both quick suite passes")
	}
	seq, par := seqPass.run(), parPass.run()
	if len(seq) != len(par) {
		t.Fatalf("sequential produced %d reports, parallel %d", len(seq), len(par))
	}
	for i, e := range Experiments() {
		if par[i].ID != e.ID {
			t.Fatalf("parallel report %d is %q, want paper order %q", i, par[i].ID, e.ID)
		}
	}
	for i := range seq {
		s, p := goldenText(seq[i:i+1]), goldenText(par[i:i+1])
		if s != p {
			t.Errorf("%s: sequential and parallel runs differ outside host output:\n  seq:\n%s\n  par:\n%s", seq[i].ID, s, p)
		}
	}
}

// TestObservedCountersDeterministicAndIsolated: every per-experiment
// counter of both passes matches testdata/quick-paper-counters.golden.
// A concurrent run thereby scopes exactly the counters a sequential run
// does to each experiment: nothing leaks across experiments that run
// at the same time. Under -update pass A rewrites the golden.
func TestObservedCountersDeterministicAndIsolated(t *testing.T) {
	for _, p := range quickPasses() {
		t.Run(p.name, func(t *testing.T) {
			checkGolden(t, "quick-paper-counters.golden", counterText(t, p.run()), p == seqPass)
		})
	}
}

// TestRunObservedAttachesStats: instrumentation never changes a report
// body, and a plain Run attaches no Stats. figure6 drives the walker
// and its prefetcher, so its counters are live in the instrumented
// passes; it is one of the cheap ones that do.
func TestRunObservedAttachesStats(t *testing.T) {
	plain, err := Run("figure6", NewE870(), true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats != nil {
		t.Error("plain Run attached Stats")
	}
	got := goldenText([]*Report{plain})
	for _, p := range quickPasses() {
		for _, rep := range p.run() {
			if rep.ID != plain.ID {
				continue
			}
			if want := goldenText([]*Report{rep}); got != want {
				t.Errorf("%s pass: plain and instrumented %s differ:\n  plain:\n%s\n  instrumented:\n%s", p.name, rep.ID, got, want)
			}
		}
	}
}
