package power8

// Determinism and safety tests for the parallel experiment harness: a
// concurrent RunSuite over the paper suite must deliver the reports in the paper's order with
// the same content a sequential run produces. Run under -race this also
// exercises the Machine read-only-after-construction contract.

import (
	"testing"
)

// TestParallelRunAllMatchesSequential: outside the lines and checks
// marked as host measurements, which legitimately differ between any
// two runs, a parallel run renders every report byte for byte as a
// sequential one (goldenText), in the paper's order.
func TestParallelRunAllMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	m := NewE870()
	seq := RunSuite(Experiments(), m, RunOptions{Quick: true, Workers: 1})
	par := RunSuite(Experiments(), m, RunOptions{Quick: true, Workers: 8})

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
