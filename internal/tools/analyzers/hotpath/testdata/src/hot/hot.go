// Package hot exercises the //p8:hotpath directive checks.
package hot

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

//p8:hotpath
func annotatedBad(m map[int]int) int {
	fmt.Println("tick") // want `hot path calls fmt\.Println`
	t := time.Now()     // want `reads the wall clock \(time\.Now\)`
	_ = time.Since(t)   // want `reads the wall clock \(time\.Since\)`
	_ = rand.Intn(4)    // want `uses math/rand`
	var c atomic.Int64
	c.Add(1) // want `uses sync/atomic`
	var raw int64
	atomic.AddInt64(&raw, 1) // want `uses sync/atomic`
	sum := 0
	for _, v := range m { // want `ranges over a map`
		sum += v
	}
	return sum
}

//p8:hotpath
func annotatedCapture() func() {
	n := 0
	f := func() { // want `hot-path closure captures "n"`
		n++
	}
	// A closure over nothing (or only its own locals) is free.
	g := func() int {
		local := 2
		return local * local
	}
	_ = g() // want `calls through a function value`
	return f
}

//p8:hotpath
func annotatedClean(xs []int) int {
	sum := 0
	for _, v := range xs { // slices are fine; only maps randomize
		sum += v
	}
	return sum
}

//p8:hotpath
func annotatedAllowed() int64 {
	// The allow comment must name the analyzer and justify itself.
	return time.Now().UnixNano() //p8:allow hotpath: one stamp per dispatch, off the per-item path
}

// unannotated is identical to annotatedBad but carries no directive,
// so nothing fires.
func unannotated(m map[int]int) int {
	fmt.Println("tick")
	_ = time.Now()
	_ = rand.Intn(4)
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}
