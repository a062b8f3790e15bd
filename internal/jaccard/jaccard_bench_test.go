package jaccard

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func benchGraph() *graph.CSR {
	cfg := graph.DefaultRMAT(12, 1)
	cfg.EdgeFactor = 8
	cfg.Undirected = true
	return graph.RMAT(cfg)
}

func BenchmarkAllPairsTeam(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := AllPairs(g, 4, nil); st.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

// allPairsSpawn is the pre-team kernel: per-call worker spawn fed by an
// unbuffered block channel. Baseline only.
func allPairsSpawn(g *graph.CSR, workers int) int64 {
	var pairs int64
	var wg sync.WaitGroup
	const blockSize = 256
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts := make([]int32, g.Rows)
			touched := make([]int32, 0, 4096)
			var local int64
			for blk := range work {
				lo := blk * blockSize
				hi := lo + blockSize
				if hi > g.Rows {
					hi = g.Rows
				}
				for i := lo; i < hi; i++ {
					ni, _ := g.Row(i)
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
					for _, j := range touched {
						counts[j] = 0
						local++
					}
					touched = touched[:0]
				}
			}
			atomic.AddInt64(&pairs, local)
		}()
	}
	blocks := (g.Rows + blockSize - 1) / blockSize
	for blk := 0; blk < blocks; blk++ {
		work <- blk
	}
	close(work)
	wg.Wait()
	return pairs
}

func BenchmarkAllPairsSpawnBaseline(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if allPairsSpawn(g, 4) == 0 {
			b.Fatal("no pairs")
		}
	}
}

// Emit-path benchmarks: the mutex TopK serializes every emit; the
// sharded collector touches only worker-local state.

func benchPairs(n int) []Pair {
	r := rng.New(7)
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{int32(i), int32(i + 1), r.Float64()}
	}
	return ps
}

func BenchmarkTopKEmitMutex(b *testing.B) {
	ps := benchPairs(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := NewTopK(100)
		for _, p := range ps {
			tk.Emit(p.I, p.J, p.Similarity)
		}
	}
}

func BenchmarkAllPairsTopKMutex(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := NewTopK(100)
		AllPairs(g, 4, tk.Emit)
	}
}
