package spmv

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// PageRank computes the PageRank vector of a directed graph given as a
// CSR adjacency matrix (rows are sources), by power iteration over the
// column-stochastic transition matrix — one of the graph algorithms the
// paper names as an SpMV consumer (Section V-B). Dangling vertices
// redistribute uniformly. It returns the ranks and the iterations used.
//
// Every per-iteration pass — the scale/dangling pass, the SpMV, and the
// delta/update pass — runs on the persistent worker team, so the power
// loop spawns no goroutines. The two reduction passes use the static
// schedule: each worker owns a fixed contiguous range and partials merge
// in worker order, so results are deterministic for a given worker
// count.
func PageRank(g *graph.CSR, damping float64, tol float64, maxIters, threads int) ([]float64, int) {
	if g.Rows != g.Cols {
		panic(fmt.Sprintf("spmv: PageRank needs a square adjacency, got %dx%d", g.Rows, g.Cols))
	}
	if damping <= 0 || damping >= 1 {
		panic(fmt.Sprintf("spmv: damping %g out of (0,1)", damping))
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIters <= 0 {
		maxIters = 100
	}
	n := g.Rows
	workers := parallel.Workers(threads)
	// Build the transpose once: rank flows along out-edges, so the
	// update y = A^T (r / outdeg) is an SpMV with the transposed matrix.
	at := g.Transpose()
	outDeg := make([]float64, n)
	for i := 0; i < n; i++ {
		outDeg[i] = float64(g.Degree(i))
	}
	r := make([]float64, n)
	scaled := make([]float64, n)
	y := make([]float64, n)
	partials := make([]float64, workers)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	iters := 0
	for iters = 1; iters <= maxIters; iters++ {
		// Pass 1: scale by out-degree, accumulating the dangling mass in
		// per-worker partials.
		for w := range partials {
			partials[w] = 0
		}
		parallel.StaticFor(workers, n, func(w, lo, hi int) {
			var dl float64
			for i := lo; i < hi; i++ {
				if outDeg[i] == 0 {
					dl += r[i]
					scaled[i] = 0
				} else {
					scaled[i] = r[i] / outDeg[i]
				}
			}
			partials[w] = dl
		})
		var dangling float64
		for _, v := range partials {
			dangling += v
		}

		CSR(y, at, scaled, workers)

		// Pass 2: apply damping and accumulate the L1 change.
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for w := range partials {
			partials[w] = 0
		}
		parallel.StaticFor(workers, n, func(w, lo, hi int) {
			var dl float64
			for i := lo; i < hi; i++ {
				v := base + damping*y[i]
				dl += math.Abs(v - r[i])
				r[i] = v
			}
			partials[w] = dl
		})
		var delta float64
		for _, v := range partials {
			delta += v
		}
		if delta < tol {
			break
		}
	}
	return r, iters
}
