package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	want := []string{
		"table1", "table2", "figure1", "figure2", "table3", "figure3",
		"table4", "figure4", "figure5", "figure6", "figure7", "figure8",
		"figure9", "figure10", "figure11", "figure12", "table5", "table6",
	}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("position %d: %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("table3"); !ok {
		t.Error("table3 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus id found")
	}
}

// TestEveryExperimentPassesQuick runs the entire reproduction in quick
// mode: every experiment must produce output and every recorded
// paper-vs-measured check must pass. The runs are the shared sequential
// ones (quickReport) that TestSimulatedExperimentsRaceFree compares with
// a parallel pass.
func TestEveryExperimentPassesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, _ := quickReport(e)
			if rep.ID != e.ID {
				t.Errorf("report id %q", rep.ID)
			}
			if len(rep.Lines) == 0 {
				t.Error("no output lines")
			}
			if len(rep.Checks) == 0 {
				t.Error("no checks recorded")
			}
			for _, c := range rep.Checks {
				if !c.Pass() {
					t.Errorf("check failed: %s", c.String())
				}
			}
		})
	}
}

func TestCheckSemantics(t *testing.T) {
	if !(Check{Name: "x", Got: 105, Want: 100, Tol: 0.05}).Pass() {
		t.Error("within-tolerance check failed")
	}
	if (Check{Name: "x", Got: 106, Want: 100, Tol: 0.05}).Pass() {
		t.Error("out-of-tolerance check passed")
	}
	if !(Check{Name: "x", Got: 5, Want: 3, Min: true}).Pass() {
		t.Error("min check failed")
	}
	if (Check{Name: "x", Got: 2, Want: 3, Min: true}).Pass() {
		t.Error("min check passed below bound")
	}
	if !(Check{Name: "x", Got: 42}).Pass() {
		t.Error("shape-only check failed")
	}
	for _, c := range []Check{
		{Name: "a", Got: 1, Want: 2, Tol: 0.1},
		{Name: "b", Got: 1, Want: 1, Min: true},
		{Name: "c", Got: 1},
	} {
		if c.String() == "" {
			t.Error("empty check string")
		}
	}
}

func TestReportHelpers(t *testing.T) {
	r := newReport("id", "title")
	r.Printf("value %d", 42)
	r.Note("note %s", "x")
	r.Checkf("c", 1, 1, 0.1)
	r.CheckMin("m", 2, 1)
	r.CheckRatio("r", 10, 20, 3)
	if len(r.Lines) != 1 || !strings.Contains(r.Lines[0], "42") {
		t.Error("Printf broken")
	}
	if len(r.Notes) != 1 || len(r.Checks) != 3 {
		t.Error("helpers broken")
	}
	if !r.Passed() {
		t.Error("all checks should pass")
	}
	r.Checkf("bad", 1, 100, 0.01)
	if r.Passed() {
		t.Error("failing check not detected")
	}
}

func TestCheckRatioBothDirections(t *testing.T) {
	r := newReport("id", "t")
	r.CheckRatio("under", 1, 2.5, 3) // ratio 2.5 < 3: pass
	r.CheckRatio("over", 2.5, 1, 3)  // same, other direction
	r.CheckRatio("far", 1, 10, 3)    // ratio 10 > 3: fail
	if !r.Checks[0].Pass() || !r.Checks[1].Pass() {
		t.Error("within-ratio checks failed")
	}
	if r.Checks[2].Pass() {
		t.Error("out-of-ratio check passed")
	}
}
