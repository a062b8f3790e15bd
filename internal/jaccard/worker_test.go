package jaccard

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

func rmatGraph(scale int, seed uint64) *graph.CSR {
	cfg := graph.DefaultRMAT(scale, seed)
	cfg.EdgeFactor = 8
	cfg.Undirected = true
	return graph.RMAT(cfg)
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
