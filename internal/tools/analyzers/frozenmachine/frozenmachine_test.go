package frozenmachine_test

import (
	"testing"

	"repro/internal/tools/analyzers/analysistest"
	"repro/internal/tools/analyzers/frozenmachine"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", frozenmachine.Analyzer, "machine", "client", "memocache")
}

// TestCallGraphGolden pins the call-graph closure inside the defining
// package: writes reachable from an exported non-constructor entry point.
func TestCallGraphGolden(t *testing.T) {
	analysistest.Run(t, "testdata/callgraph", frozenmachine.Analyzer, "machine")
}
