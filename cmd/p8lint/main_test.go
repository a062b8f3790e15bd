package main

import (
	"path/filepath"
	"testing"
)

// TestRepoIsClean is the suite's meta-test: `p8lint ./...` must exit
// clean on the repository itself. Every contract the analyzers encode
// is load-bearing (determinism of the paper-order reports, the
// race-freedom of a parallel RunSuite, the walker's allocation
// budget), so a finding here is a real regression, not style noise.
// Deliberate, justified deviations are visible as //p8:allow comments
// in the tree, not as exclusions here.
func TestRepoIsClean(t *testing.T) {
	res, _, err := LintDetailed(".", []string{"./..."})
	if err != nil {
		t.Fatalf("p8lint failed to run: %v", err)
	}
	findings := res.Findings
	for _, d := range findings {
		t.Errorf("%v", d)
	}
	if n := len(findings); n > 0 {
		t.Fatalf("p8lint ./... reported %d finding(s); fix them or add //p8:allow with a justification", n)
	}
}

// TestSuppressionBudget pins the suppression debt: the itemized
// //p8:allow count must not exceed the checked-in .p8lint-budget.
// Shrinking the count is always fine (then lower the budget); growing
// it requires raising the budget in the same change, so the new
// justification is reviewed next to the number it moves.
func TestSuppressionBudget(t *testing.T) {
	res, root, err := LintDetailed(".", []string{"./..."})
	if err != nil {
		t.Fatalf("p8lint failed to run: %v", err)
	}
	budgetPath := filepath.Join(root, budgetFile)
	budget, ok, err := readBudget(budgetPath)
	if err != nil {
		t.Fatalf("reading %s: %v", budgetPath, err)
	}
	if !ok {
		t.Fatalf("%s is missing; the suppression budget must stay checked in", budgetPath)
	}
	if n := len(res.Allows); n > budget {
		for _, a := range res.Allows {
			t.Logf("%s:%d: %s: %s", a.File, a.Line, a.Analyzer, a.Justification)
		}
		t.Fatalf("%d suppression(s) exceed the budget of %d in %s; remove allows or raise the budget in the same change", n, budget, budgetPath)
	}
	if budget-len(res.Allows) > 5 {
		t.Errorf("budget %d is %d above the actual count %d; ratchet it down in %s", budget, budget-len(res.Allows), len(res.Allows), budgetPath)
	}
}
