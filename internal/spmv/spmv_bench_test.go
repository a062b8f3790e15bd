package spmv

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
)

// Benchmarks for the kernel-runtime migration. Two comparisons matter:
//
//  1. team vs spawn-per-call — the multi-iteration paths (PageRank
//     power steps, MeasureCSR repetitions) pay the goroutine set-up on
//     every call in the old pattern and never in the new one;
//  2. dynamic chunks vs the paper's static nnz-balanced split (the
//     spawn baseline) — on a skewed R-MAT matrix the hub rows gate a
//     static partition's slowest worker, while dynamic chunks
//     rebalance; on a banded (uniform) matrix static has the lower
//     overhead.

func benchRMAT() *graph.CSR { return graph.RMAT(graph.DefaultRMAT(14, 1)) }
func benchBanded() *graph.CSR {
	return graph.Generate(graph.MatrixProfile{
		Name: "banded", N: 1 << 14, NNZ: 1 << 18, Kind: graph.KindBanded,
	}, 1)
}

func benchVectors(m *graph.CSR) (y, x []float64) {
	x = make([]float64, m.Cols)
	for i := range x {
		x[i] = 1 + float64(i%3)
	}
	return make([]float64, m.Rows), x
}

// PartitionRows returns parts+1 row boundaries that balance nonzeros:
// partition p owns rows [bounds[p], bounds[p+1]). Mirrors the paper's
// static 1D partitioning with per-partition nnz balancing.
func PartitionRows(m *graph.CSR, parts int) []int {
	if parts <= 0 {
		panic(fmt.Sprintf("spmv: parts = %d", parts))
	}
	bounds := make([]int, parts+1)
	total := m.NNZ()
	row := 0
	for p := 1; p < parts; p++ {
		target := total * int64(p) / int64(parts)
		for row < m.Rows && m.RowPtr[row] < target {
			row++
		}
		bounds[p] = row
	}
	bounds[parts] = m.Rows
	return bounds
}

// csrSpawn is the pre-team CSR kernel: static nnz-balanced partition,
// one fresh goroutine per worker per call. Kept as the benchmark
// baseline only.
func csrSpawn(y []float64, m *graph.CSR, x []float64, workers int) {
	bounds := PartitionRows(m, workers)
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		lo, hi := bounds[p], bounds[p+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			csrRows(y, m, x, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func BenchmarkCSRTeam(b *testing.B) {
	m := benchRMAT()
	y, x := benchVectors(m)
	b.SetBytes(m.NNZ() * 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CSR(y, m, x, 4)
	}
}

func BenchmarkCSRSpawnBaseline(b *testing.B) {
	m := benchRMAT()
	y, x := benchVectors(m)
	b.SetBytes(m.NNZ() * 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csrSpawn(y, m, x, 4)
	}
}

// Dynamic chunks vs the static spawn split at 8 workers on the skewed
// R-MAT matrix (hub rows gate the static split) and the uniform banded
// matrix (static's lower overhead should win or tie).

func BenchmarkCSRDynamicRMAT8(b *testing.B) {
	m := benchRMAT()
	y, x := benchVectors(m)
	b.SetBytes(m.NNZ() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CSR(y, m, x, 8)
	}
}

func BenchmarkCSRStaticRMAT8(b *testing.B) {
	m := benchRMAT()
	y, x := benchVectors(m)
	b.SetBytes(m.NNZ() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csrSpawn(y, m, x, 8)
	}
}

func BenchmarkCSRDynamicBanded8(b *testing.B) {
	m := benchBanded()
	y, x := benchVectors(m)
	b.SetBytes(m.NNZ() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CSR(y, m, x, 8)
	}
}

func BenchmarkCSRStaticBanded8(b *testing.B) {
	m := benchBanded()
	y, x := benchVectors(m)
	b.SetBytes(m.NNZ() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csrSpawn(y, m, x, 8)
	}
}

// The multi-iteration paths: 50 power iterations per op.

func BenchmarkPageRank50Team(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(13, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// An unreachable tolerance forces the full 50 iterations so
		// every op does identical work (iters reads maxIters+1 when the
		// loop runs dry without converging).
		if _, iters := PageRank(g, 0.85, 1e-300, 50, 4); iters < 50 {
			b.Fatal("converged early; benchmark workload changed")
		}
	}
}

// pageRankSpawn is the pre-team power iteration: sequential scale and
// update passes, spawn-per-call SpMV. Baseline only.
func pageRankSpawn(g *graph.CSR, damping float64, maxIters, workers int) []float64 {
	n := g.Rows
	at := g.Transpose()
	outDeg := make([]float64, n)
	for i := 0; i < n; i++ {
		outDeg[i] = float64(g.Degree(i))
	}
	r := make([]float64, n)
	scaled := make([]float64, n)
	y := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	for it := 0; it < maxIters; it++ {
		var dangling float64
		for i := 0; i < n; i++ {
			if outDeg[i] == 0 {
				dangling += r[i]
				scaled[i] = 0
			} else {
				scaled[i] = r[i] / outDeg[i]
			}
		}
		csrSpawn(y, at, scaled, workers)
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for i := 0; i < n; i++ {
			r[i] = base + damping*y[i]
		}
	}
	return r
}

func BenchmarkPageRank50SpawnBaseline(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(13, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := pageRankSpawn(g, 0.85, 50, 4); len(r) != g.Rows {
			b.Fatal("bad result")
		}
	}
}

// MeasureCSR's repetition loop: 20 SpMVs per op.

func BenchmarkMeasureCSR20Team(b *testing.B) {
	m := benchBanded()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if MeasureCSR(m, 4, 20) <= 0 {
			b.Fatal("no rate")
		}
	}
}

func BenchmarkMeasureCSR20SpawnBaseline(b *testing.B) {
	m := benchBanded()
	y, x := benchVectors(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csrSpawn(y, m, x, 4) // warmup, as MeasureCSR does
		for it := 0; it < 20; it++ {
			csrSpawn(y, m, x, 4)
		}
	}
}

func BenchmarkTwoScanTeam(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(14, 1))
	ts := NewTwoScan(g, 4096)
	x := make([]float64, ts.Cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, ts.Rows)
	b.SetBytes(ts.NNZ() * 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Multiply(y, x, 4)
	}
}
