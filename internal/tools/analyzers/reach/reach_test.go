package reach_test

import (
	"testing"

	"repro/internal/tools/analyzers/analysistest"
	"repro/internal/tools/analyzers/reach"
)

// TestGolden pins the root rule on a small program: main, init, a
// package-level initializer, a function value, interface dispatch, a
// stdlib-interface method of a used type (String), exported API of an
// importable package and another package's test each keep a function
// alive; dead code, code only its own package's tests call and a
// stdlib-interface method of a type no reached code uses (ServeHTTP)
// are reported.
func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", reach.Analyzer,
		"app/cmd/tool", "app/api", "app/internal/lib", "app/internal/support", "app/internal/other")
}
