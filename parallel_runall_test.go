package power8

// Determinism and safety tests for the parallel experiment harness: a
// concurrent RunSuite over the paper suite must deliver the reports in the paper's order with
// the same content a sequential run produces. Run under -race this also
// exercises the Machine read-only-after-construction contract.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// hostMeasured marks the experiments whose report lines embed host
// wall-clock measurements (real kernel runs). Those lines legitimately
// differ between any two runs — parallel or not — so the byte-identity
// requirement applies to everything else, and the host-measured reports
// are compared structurally (ids, titles, notes, line counts, check
// names).
var hostMeasured = map[string]bool{
	"figure9": true, "figure10": true, "figure11": true, "figure12": true,
	"table6": true,
}

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
	wantOrder := make([]string, 0, len(seq))
	for _, e := range Experiments() {
		wantOrder = append(wantOrder, e.ID)
	}
	for i, rep := range par {
		if rep.ID != wantOrder[i] {
			t.Fatalf("parallel report %d is %q, want paper order %q", i, rep.ID, wantOrder[i])
		}
	}

	for i := range seq {
		s, p := seq[i], par[i]
		if s.ID != p.ID || s.Title != p.Title {
			t.Errorf("report %d: header (%q, %q) vs (%q, %q)", i, s.ID, s.Title, p.ID, p.Title)
			continue
		}
		if !reflect.DeepEqual(s.Notes, p.Notes) {
			t.Errorf("%s: notes differ:\n  seq: %v\n  par: %v", s.ID, s.Notes, p.Notes)
		}
		if len(s.Lines) != len(p.Lines) {
			t.Errorf("%s: %d lines sequential vs %d parallel", s.ID, len(s.Lines), len(p.Lines))
			continue
		}
		if names(s.Checks) != names(p.Checks) {
			t.Errorf("%s: check names differ:\n  seq: %s\n  par: %s",
				s.ID, names(s.Checks), names(p.Checks))
		}
		if hostMeasured[s.ID] {
			continue
		}
		// Fully simulated experiment: byte-identical output required.
		if !reflect.DeepEqual(s.Lines, p.Lines) {
			t.Errorf("%s: lines differ between sequential and parallel runs", s.ID)
		}
		for j := range s.Checks {
			if s.Checks[j].String() != p.Checks[j].String() {
				t.Errorf("%s: check %d differs:\n  seq: %s\n  par: %s",
					s.ID, j, s.Checks[j].String(), p.Checks[j].String())
			}
		}
	}
}

// TestHostMeasuredListIsCurrent fails when an experiment id in the
// exemption list above disappears from the registry, so the list cannot
// silently rot.
func TestHostMeasuredListIsCurrent(t *testing.T) {
	known := map[string]bool{}
	for _, e := range Experiments() {
		known[e.ID] = true
	}
	for id := range hostMeasured {
		if !known[id] {
			t.Errorf("hostMeasured lists unknown experiment %q", id)
		}
	}
}

func names(checks []experiments.Check) string {
	var b strings.Builder
	for _, c := range checks {
		b.WriteString(c.Name)
		b.WriteString(";")
	}
	return b.String()
}
