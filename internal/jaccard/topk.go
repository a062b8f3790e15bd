package jaccard

import (
	"container/heap"
	"sort"
	"sync"
)

// Pair is one scored vertex pair.
type Pair struct {
	I, J       int32
	Similarity float64
}

// TopK collects the K most similar pairs from a concurrent AllPairs run.
// It is an Emit implementation: pass collector.Emit to AllPairs and read
// Pairs afterwards. The paper's use cases (near-duplicate detection,
// query refinement) consume exactly this reduction rather than the full
// quadratic output.
type TopK struct {
	k  int
	mu sync.Mutex
	h  pairHeap
}

// NewTopK returns a collector for the k best pairs (k > 0).
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("jaccard: k must be positive")
	}
	return &TopK{k: k}
}

// Emit implements the AllPairs callback; safe for concurrent use.
func (t *TopK) Emit(i, j int32, sim float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.h) < t.k {
		heap.Push(&t.h, Pair{i, j, sim})
		return
	}
	if sim > t.h[0].Similarity {
		t.h[0] = Pair{i, j, sim}
		heap.Fix(&t.h, 0)
	}
}

// Pairs returns the collected pairs, most similar first (ties broken by
// vertex ids for determinism).
func (t *TopK) Pairs() []Pair {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Pair(nil), t.h...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Similarity != out[b].Similarity {
			return out[a].Similarity > out[b].Similarity
		}
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

// pairHeap is a min-heap on similarity, so the root is the weakest of
// the current top K.
type pairHeap []Pair

func (h pairHeap) Len() int            { return len(h) }
func (h pairHeap) Less(i, j int) bool  { return h[i].Similarity < h[j].Similarity }
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(Pair)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
