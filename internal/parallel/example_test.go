package parallel_test

import (
	"fmt"
	"sync/atomic"

	"repro/internal/parallel"
)

// ExampleNewTeam shows the kernel-runtime idiom: create a persistent
// team once, run many loops on it, close it when done. The goroutines
// are created by NewTeam and reused — steady-state loops spawn nothing.
func ExampleNewTeam() {
	team := parallel.NewTeam(4)
	defer team.Close()

	var sum atomic.Int64
	for iter := 0; iter < 3; iter++ {
		team.ParallelForWorker(1000, 0, func(_, lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
	}
	fmt.Println(sum.Load())
	// Output: 1498500
}

// ExampleTeam_ParallelForWorker contrasts the two schedules: dynamic
// chunking rebalances skewed work, the static pre-split keeps per-worker
// partial reductions in a deterministic merge order.
func ExampleTeam_ParallelForWorker() {
	team := parallel.NewTeam(2)
	defer team.Close()

	// Dynamic: workers pull chunks of 16 indices from a shared cursor.
	var touched atomic.Int64
	team.ParallelForWorker(100, 16, func(_, lo, hi int) {
		touched.Add(int64(hi - lo))
	})

	// Static: worker w always owns the same contiguous range, so the
	// partials slice is filled identically run to run.
	partials := make([]int64, 2)
	team.StaticFor(100, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			partials[worker] += int64(i)
		}
	})
	var total int64
	for _, p := range partials {
		total += p
	}
	fmt.Println(touched.Load(), total)
	// Output: 100 4950
}

// ExampleFor shows the package-level helper: a shared process-wide team
// per worker count, safe for overlapping callers.
func ExampleFor() {
	var sum atomic.Int64
	parallel.For(2, 10, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	fmt.Println(sum.Load())
	// Output: 45
}
