package reach_test

import (
	"testing"

	"repro/internal/tools/analyzers/analysistest"
	"repro/internal/tools/analyzers/reach"
)

// TestGolden pins the root rule on a small program: main, init, a
// package-level initializer, a function value, interface dispatch,
// stdlib-interface methods (String, ServeHTTP), exported API of an
// importable package and another package's test each keep a function
// alive; dead code and code only its own package's tests call are
// reported.
func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", reach.Analyzer,
		"app/cmd/tool", "app/api", "app/internal/lib", "app/internal/support", "app/internal/other")
}
