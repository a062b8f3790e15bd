package hotpath_test

import (
	"testing"

	"repro/internal/tools/analyzers/analysistest"
	"repro/internal/tools/analyzers/hotpath"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", hotpath.Analyzer, "hot")
}

// TestCallGraphGolden pins the call-graph closure: offenses in the
// transitive callees of a //p8:hotpath function.
func TestCallGraphGolden(t *testing.T) {
	analysistest.Run(t, "testdata/callgraph", hotpath.Analyzer, "deep")
}
