// Package lib holds one function per root kind, plus the two kinds of
// dead code the analyzer reports.
package lib

import "net/http"

// Called is called from main.
func Called() { helper() }

// helper is reached through Called.
func helper() {}

// FromInit is called from an init function.
func FromInit() {}

// FromVar is named by a package-level initializer.
func FromVar() int { return 1 }

// AsValue is passed as a function value.
func AsValue(x int) int { return x }

// FromAPI is called by the public api package.
func FromAPI() int { return 2 }

// Shape is dispatched through an interface in main.
type Shape interface{ Area() int }

// Square implements Shape.
type Square struct{ side int }

// NewSquare builds a square.
func NewSquare(side int) *Square { return &Square{side} }

// Area is reached through the Shape dispatch.
func (s *Square) Area() int { return s.side * s.side }

// String is reached because it implements fmt.Stringer: the standard
// library may call it through the interface.
func (s *Square) String() string { return "square" }

// Handler is never called in the program, but ServeHTTP implements
// http.Handler.
type Handler struct{}

// ServeHTTP implements http.Handler.
func (Handler) ServeHTTP(http.ResponseWriter, *http.Request) {}

// Dead has no caller at all.
func Dead() {} // want `lib.Dead is unreachable: no main, init, exported API, function value, stdlib interface or other package's test reaches it`

// OnlyOwnTests is called only by this package's own tests.
func OnlyOwnTests() int { return deadHelper() } // want `lib.OnlyOwnTests is unreachable`

// deadHelper is reached only through OnlyOwnTests.
func deadHelper() int { return 3 } // want `lib.deadHelper is unreachable`
