package jaccard

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

func rmatGraph(scale int, seed uint64) *graph.CSR {
	cfg := graph.DefaultRMAT(scale, seed)
	cfg.EdgeFactor = 8
	cfg.Undirected = true
	return graph.RMAT(cfg)
}

// TestAllPairsWorkerIndexIsExclusive: emits with the same worker index
// never overlap, the contract EmitWorker documents.
func TestAllPairsWorkerIndexIsExclusive(t *testing.T) {
	g := rmatGraph(9, 7)
	const threads = 8
	workers := parallel.Workers(threads)
	active := make([]int32, workers)
	var mu sync.Mutex // only guards the failure flag, not the counters
	failed := false
	AllPairsWorker(g, threads, func(w int, _, _ int32, _ float64) {
		if w < 0 || w >= workers {
			mu.Lock()
			failed = true
			mu.Unlock()
			return
		}
		// Not atomic on purpose: the per-worker serialization contract is
		// what makes this plain increment safe; -race verifies it.
		active[w]++
	})
	if failed {
		t.Fatal("worker index out of range")
	}
	var total int64
	for _, c := range active {
		total += int64(c)
	}
	st := AllPairs(g, threads, nil)
	if total != st.Pairs {
		t.Fatalf("worker-indexed emit saw %d pairs, count-only run saw %d", total, st.Pairs)
	}
}

// TestAllPairsSteadyStateSpawnsNothing: repeated runs reuse the
// persistent team.
func TestAllPairsSteadyStateSpawnsNothing(t *testing.T) {
	g := rmatGraph(8, 3)
	const threads = 4
	AllPairs(g, threads, nil) // warmup
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		AllPairs(g, threads, nil)
	}
	after := runtime.NumGoroutine()
	if after > before {
		t.Errorf("goroutines grew %d -> %d across AllPairs calls", before, after)
	}
}
