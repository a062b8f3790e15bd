package spmv

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// TestCSRScheduleIdentity: the dynamic row schedule, at any worker
// count, produces output bit-identical to the sequential kernel — each
// row's dot product accumulates in CSR element order regardless of
// which worker computes it.
func TestCSRScheduleIdentity(t *testing.T) {
	for _, m := range []*graph.CSR{
		graph.RMAT(graph.DefaultRMAT(11, 7)), // skewed scale-free
		randomMatrix(9, 2000, 8),             // uniform random
	} {
		x := vec(m.Cols)
		want := make([]float64, m.Rows)
		CSR(want, m, x, 1) // one worker: sequential oracle
		for _, threads := range []int{2, 4, 8, 16} {
			y := make([]float64, m.Rows)
			CSR(y, m, x, threads)
			for i := range y {
				if y[i] != want[i] {
					t.Fatalf("threads=%d: y[%d] = %v, want %v (must be bit-identical)", threads, i, y[i], want[i])
				}
			}
		}
	}
}

// TestTwoScanThreadIdentity: the two-scan kernel writes disjoint y
// stripes whose per-row accumulation order is fixed by the block walk,
// so any worker count reproduces the one-worker bits.
func TestTwoScanThreadIdentity(t *testing.T) {
	m := graph.RMAT(graph.DefaultRMAT(10, 4))
	ts := NewTwoScan(m, 128)
	x := vec(m.Cols)
	want := make([]float64, m.Rows)
	ts.Multiply(want, x, 1)
	for _, threads := range []int{2, 5, 16} {
		y := make([]float64, m.Rows)
		ts.Multiply(y, x, threads)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("threads=%d: y[%d] = %v, want %v", threads, i, y[i], want[i])
			}
		}
	}
}

// TestPageRankWorkerCountTolerance: the static-schedule reductions
// change floating-point grouping with the worker count, but only at
// rounding level.
func TestPageRankWorkerCountTolerance(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(9, 11))
	r1, _ := PageRank(g, 0.85, 1e-12, 200, 1)
	for _, threads := range []int{2, 4, 8} {
		rN, _ := PageRank(g, 0.85, 1e-12, 200, threads)
		for i := range r1 {
			d := r1[i] - rN[i]
			if d < -1e-12 || d > 1e-12 {
				t.Fatalf("threads=%d: rank[%d] differs by %g", threads, i, d)
			}
		}
	}
}

// TestPageRankDeterministicPerWorkerCount: for a fixed worker count the
// static reductions merge partials in a fixed order, so repeated runs
// are bit-identical.
func TestPageRankDeterministicPerWorkerCount(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(9, 3))
	a, itA := PageRank(g, 0.85, 1e-12, 200, 4)
	b, itB := PageRank(g, 0.85, 1e-12, 200, 4)
	if itA != itB {
		t.Fatalf("iteration counts differ: %d vs %d", itA, itB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank[%d] not reproducible: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestCSRSteadyStateSpawnsNothing: after warmup, repeated CSR calls
// start no goroutines (the team is persistent) and stay within a few
// allocations (the scheduling closures).
func TestCSRSteadyStateSpawnsNothing(t *testing.T) {
	m := randomMatrix(5, 4000, 8)
	x := vec(m.Cols)
	y := make([]float64, m.Rows)
	const threads = 4
	CSR(y, m, x, threads) // warmup: creates the shared team
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		CSR(y, m, x, threads)
	}
	after := runtime.NumGoroutine()
	if after > before {
		t.Errorf("goroutines grew %d -> %d across steady-state SpMV calls", before, after)
	}
	allocs := testing.AllocsPerRun(20, func() {
		CSR(y, m, x, threads)
	})
	if allocs > 4 {
		t.Errorf("steady-state CSR allocates %.1f objects per call, want <= 4", allocs)
	}
}

// TestCSRGrainNNZAware: grain shrinks as rows get denser, and respects
// the chunks-per-worker cap.
func TestCSRGrainNNZAware(t *testing.T) {
	sparse := randomMatrix(1, 10000, 2)
	dense := randomMatrix(1, 10000, 64)
	gs := csrGrain(sparse, 4)
	gd := csrGrain(dense, 4)
	if gs <= gd {
		t.Errorf("grain not nnz-aware: sparse %d, dense %d rows per chunk", gs, gd)
	}
	if gd < 1 || gs < 1 {
		t.Errorf("grain must be positive: %d %d", gs, gd)
	}
	if maxG := sparse.Rows / (4 * 4); gs > maxG {
		t.Errorf("grain %d exceeds chunks-per-worker cap %d", gs, maxG)
	}
}
