// Package spmv implements the two sparse matrix-vector multiply designs
// of Section V-B: a row-parallel CSR kernel for HPC matrices (Figure
// 11), where the paper replicates the input vector per socket; and the two-scan scaled/blocked algorithm of Buono et al.
// for scale-free graphs (Figure 12), which column-blocks a scaling pass
// and row-blocks a reduction pass so each pass's vector chunk stays in
// cache.
//
// All kernels run on the persistent worker team of internal/parallel:
// steady-state iteration (PageRank power steps, MeasureCSR repetitions)
// spawns no goroutines. The CSR kernel pulls row chunks dynamically with
// nnz-aware grain sizing, so hub-heavy scale-free rows rebalance across
// workers where the paper pre-splits rows by nonzeros. Each row's dot
// product accumulates in the same element order whichever worker runs
// it, so results are bit-identical to the sequential kernel.
package spmv

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/units"
)

// CSR computes y = A*x with the row-parallel CSR kernel: workers pull
// row chunks sized by csrGrain from the shared cursor.
func CSR(y []float64, m *graph.CSR, x []float64, threads int) {
	if len(y) != m.Rows || len(x) != m.Cols {
		panic(fmt.Sprintf("spmv: dims y=%d x=%d for %dx%d", len(y), len(x), m.Rows, m.Cols))
	}
	workers := parallel.Workers(threads)
	parallel.For(workers, m.Rows, csrGrain(m, workers), func(lo, hi int) {
		csrRows(y, m, x, lo, hi)
	})
}

// csrRows is the serial row kernel; each row's sum accumulates in CSR
// element order, so output bits do not depend on which worker runs the
// row.
func csrRows(y []float64, m *graph.CSR, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sum float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += m.Vals[k] * x[m.ColIdx[k]]
		}
		y[i] = sum
	}
}

// csrGrain sizes dynamic chunks by nonzeros, not rows: a chunk carries
// ~4096 nnz on average, so uniform matrices get coarse chunks (low
// scheduling overhead) while scale-free matrices get fine ones (hub
// rows can rebalance). Capped so every worker sees several chunks.
func csrGrain(m *graph.CSR, workers int) int {
	rows := m.Rows
	if rows == 0 {
		return 1
	}
	avg := float64(m.NNZ()) / float64(rows)
	if avg < 1 {
		avg = 1
	}
	g := int(4096 / avg)
	if g < 1 {
		g = 1
	}
	if maxG := rows / (workers * 4); maxG >= 1 && g > maxG {
		g = maxG
	}
	return g
}

// Flops returns the floating-point operations of one SpMV: 2 per nonzero.
func Flops(m *graph.CSR) float64 { return 2 * float64(m.NNZ()) }

// MeasureCSR times iters repetitions of the CSR kernel after a warmup and
// returns the throughput.
func MeasureCSR(m *graph.CSR, threads, iters int) units.Rate {
	if iters <= 0 {
		panic("spmv: iters must be positive")
	}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1 + float64(i%3)
	}
	y := make([]float64, m.Rows)
	CSR(y, m, x, threads) // warmup
	start := time.Now()
	for it := 0; it < iters; it++ {
		CSR(y, m, x, threads)
	}
	sec := time.Since(start).Seconds()
	return units.Rate(Flops(m) * float64(iters) / sec)
}
