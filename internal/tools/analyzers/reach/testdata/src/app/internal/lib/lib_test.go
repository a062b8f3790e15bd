package lib_test

import (
	"testing"

	"app/internal/lib"
)

// An external test package is still the package's own test: it does
// not keep OnlyOwnTests alive.
func TestOnlyOwnTests(t *testing.T) {
	if lib.OnlyOwnTests() != 3 {
		t.Fatal("wrong")
	}
}
