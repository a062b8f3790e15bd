package power8

import (
	"testing"
)

func TestE870Spec(t *testing.T) {
	s := E870Spec()
	if s.TotalCores() != 64 || s.TotalThreads() != 512 {
		t.Fatalf("E870 = %d cores / %d threads", s.TotalCores(), s.TotalThreads())
	}
	if MaxSMPSpec().TotalCores() != 192 {
		t.Fatal("max SMP wrong")
	}
}

func TestRunKnownExperiment(t *testing.T) {
	m := NewE870()
	rep, err := Run("table3", m, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table3" || len(rep.Lines) == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !rep.Passed() {
		for _, c := range rep.Checks {
			if !c.Pass() {
				t.Errorf("failed: %s", c.String())
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", NewE870(), true); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	if got := len(Experiments()); got != 18 {
		t.Errorf("registry size = %d, want 18 (tables I-VI + figures 1-12)", got)
	}
}
