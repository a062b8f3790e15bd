// Command tool is the golden binary: every root kind the reach
// analyzer recognises keeps something in internal/lib alive.
package main

import (
	"fmt"

	"app/internal/lib"
	"app/internal/other"
)

// hooks is a package-level initializer: the functions it names run
// whenever the program does.
var hooks = []func() int{lib.FromVar}

func init() {
	lib.FromInit()
}

func main() {
	lib.Called()
	apply(lib.AsValue) // a function used as a value, never called here
	var s lib.Shape = lib.NewSquare(2)
	fmt.Println(s.Area(), other.Work(), len(hooks))
}

func apply(f func(int) int) int { return f(1) }
