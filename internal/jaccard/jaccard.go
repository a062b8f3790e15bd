// Package jaccard implements the all-pairs Jaccard similarity kernel of
// Section V-A: for an undirected graph, the similarity of every vertex
// pair that shares at least one neighbor, J(i,j) = |N(i) n N(j)| /
// |N(i) u N(j)|. The paper computes it as a sparse matrix product
// (squaring the adjacency matrix); this implementation uses the
// equivalent locality-aware blocked two-hop expansion with per-worker
// sparse accumulators, which is how such masked products are evaluated
// row-block by row-block.
//
// The headline system observation reproduced here is Figure 10: the
// output (all similar pairs) is vastly larger than the input graph, which
// is why the kernel demands the memory capacity of a large SMP.
package jaccard

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/units"
)

// PairBytes is the memory footprint of one output pair: two vertex ids
// and the similarity (4 + 4 + 8 bytes).
const PairBytes = 16

// Stats summarizes an all-pairs run.
type Stats struct {
	Vertices    int
	InputEdges  int64 // directed edge slots in the CSR (2x undirected edges)
	Pairs       int64 // unordered similar pairs found
	OutputBytes units.Bytes
	Elapsed     time.Duration
}

// InputBytes returns the CSR footprint of the input graph.
func (s Stats) InputBytes() units.Bytes {
	return units.Bytes(s.InputEdges*12 + int64(s.Vertices+1)*8)
}

// Emit receives one similar pair with i < j. Emit implementations must be
// safe for concurrent use; AllPairs calls it from multiple workers.
type Emit func(i, j int32, similarity float64)

// AllPairs computes the Jaccard similarity of every pair of vertices with
// a common neighbor. The graph must be undirected (a symmetric adjacency
// matrix, as produced by graph.RMAT with Undirected set). A nil emit
// counts pairs without materializing them, which is how the large-scale
// footprint sweeps run. Row blocks are dynamically scheduled on the
// persistent worker team: hub vertices of a scale-free graph make some
// blocks orders of magnitude heavier than others, and pulling from the
// shared cursor rebalances them.
func AllPairs(g *graph.CSR, threads int, emit Emit) Stats {
	if g.Rows != g.Cols {
		panic(fmt.Sprintf("jaccard: adjacency matrix must be square, got %dx%d", g.Rows, g.Cols))
	}
	start := time.Now()
	workers := parallel.Workers(threads)
	const blockSize = 256 // source vertices per scheduling chunk
	// Per-worker scratch, allocated lazily on first use by each worker
	// and reused across that worker's chunks.
	type scratch struct {
		counts  []int32
		touched []int32
		pairs   int64
	}
	scratches := make([]scratch, workers)
	parallel.ForWorker(workers, g.Rows, blockSize, func(w, lo, hi int) {
		s := &scratches[w]
		if s.counts == nil {
			s.counts = make([]int32, g.Rows)
			s.touched = make([]int32, 0, 4096)
		}
		counts, touched := s.counts, s.touched
		var local int64
		for i := lo; i < hi; i++ {
			ni, _ := g.Row(i)
			// Two-hop expansion: every j > i reachable in two
			// steps shares at least one neighbor with i.
			for _, u := range ni {
				nu, _ := g.Row(int(u))
				for _, j := range nu {
					if int(j) <= i {
						continue
					}
					if counts[j] == 0 {
						touched = append(touched, j)
					}
					counts[j]++
				}
			}
			di := len(ni)
			if emit != nil {
				for _, j := range touched {
					c := counts[j]
					counts[j] = 0
					union := di + g.Degree(int(j)) - int(c)
					emit(int32(i), j, float64(c)/float64(union))
				}
			} else {
				// Counting-only mode (footprint sweeps): skip the
				// degree lookup and division entirely.
				for _, j := range touched {
					counts[j] = 0
				}
			}
			local += int64(len(touched))
			touched = touched[:0]
		}
		s.touched = touched[:0]
		s.pairs += local
	})
	var pairs int64
	for w := range scratches {
		pairs += scratches[w].pairs
	}
	return Stats{
		Vertices:    g.Rows,
		InputEdges:  g.NNZ(),
		Pairs:       pairs,
		OutputBytes: units.Bytes(pairs) * PairBytes,
		Elapsed:     time.Since(start),
	}
}
