package determinism_test

import (
	"testing"

	"repro/internal/tools/analyzers/analysistest"
	"repro/internal/tools/analyzers/determinism"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer, "machine", "engine", "obs", "other", "fault", "canon", "memo")
}

// TestCallGraphGolden pins the call-graph closure: nondeterminism that
// reaches a deterministic package through out-of-scope helpers.
func TestCallGraphGolden(t *testing.T) {
	analysistest.Run(t, "testdata/callgraph", determinism.Analyzer, "engine", "helpers", "other")
}
