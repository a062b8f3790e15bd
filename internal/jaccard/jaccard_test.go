package jaccard

import (
	"math"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/units"
)

// path builds the path graph 0-1-2-...-(n-1) as a symmetric CSR.
func path(n int) *graph.CSR {
	coo := &graph.COO{Rows: n, Cols: n}
	for i := 0; i < n-1; i++ {
		coo.Append(int32(i), int32(i+1), 1)
		coo.Append(int32(i+1), int32(i), 1)
	}
	return graph.FromCOO(coo)
}

// triangle plus a pendant: 0-1, 1-2, 2-0, 2-3.
func triangleWithTail() *graph.CSR {
	coo := &graph.COO{Rows: 4, Cols: 4}
	add := func(a, b int32) {
		coo.Append(a, b, 1)
		coo.Append(b, a, 1)
	}
	add(0, 1)
	add(1, 2)
	add(2, 0)
	add(2, 3)
	return graph.FromCOO(coo)
}

func collect(g *graph.CSR, threads int) map[[2]int32]float64 {
	var mu sync.Mutex
	out := map[[2]int32]float64{}
	AllPairs(g, threads, func(i, j int32, s float64) {
		mu.Lock()
		out[[2]int32{i, j}] = s
		mu.Unlock()
	})
	return out
}

func TestTriangleWithTail(t *testing.T) {
	g := triangleWithTail()
	got := collect(g, 2)
	// N(0)={1,2}, N(1)={0,2}, N(2)={0,1,3}, N(3)={2}.
	want := map[[2]int32]float64{
		{0, 1}: 1.0 / 3, // common {2}, union {0,1,2}
		{0, 2}: 1.0 / 4, // common {1}, union {0,1,2,3}
		{0, 3}: 1.0 / 2, // common {2}, union {1,2}... N(0)={1,2}, N(3)={2}: inter 1, union 2
		{1, 2}: 1.0 / 4,
		{1, 3}: 1.0 / 2,
	}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("J(%d,%d) = %v, want %v", k[0], k[1], got[k], v)
		}
	}
}

func TestPathGraph(t *testing.T) {
	// In a path, i and i+2 share exactly one neighbor; adjacent vertices
	// share none (no triangles).
	g := path(10)
	got := collect(g, 4)
	for k := range got {
		if k[1]-k[0] != 2 {
			t.Errorf("unexpected similar pair (%d,%d)", k[0], k[1])
		}
	}
	if len(got) != 8 {
		t.Errorf("pairs = %d, want 8", len(got))
	}
}

func TestMatchesExactOracle(t *testing.T) {
	cfg := graph.DefaultRMAT(9, 17)
	cfg.Undirected = true
	g := graph.RMAT(cfg)
	got := collect(g, 8)
	for k, v := range got {
		if want := Exact(g, int(k[0]), int(k[1])); math.Abs(v-want) > 1e-12 {
			t.Fatalf("J(%d,%d) = %v, oracle %v", k[0], k[1], v, want)
		}
	}
	// Every emitted pair must actually intersect.
	for k := range got {
		if Exact(g, int(k[0]), int(k[1])) == 0 {
			t.Fatalf("pair (%d,%d) has empty intersection", k[0], k[1])
		}
	}
}

func TestCountOnlyMatchesEmit(t *testing.T) {
	cfg := graph.DefaultRMAT(8, 23)
	cfg.Undirected = true
	g := graph.RMAT(cfg)
	st := AllPairs(g, 4, nil)
	emitted := collect(g, 4)
	if st.Pairs != int64(len(emitted)) {
		t.Errorf("count-only pairs %d, emit pairs %d", st.Pairs, len(emitted))
	}
	if st.OutputBytes != units.Bytes(st.Pairs*PairBytes) {
		t.Errorf("output bytes %v for %d pairs", st.OutputBytes, st.Pairs)
	}
}

func TestThreadCountInvariance(t *testing.T) {
	cfg := graph.DefaultRMAT(8, 5)
	cfg.Undirected = true
	g := graph.RMAT(cfg)
	one := AllPairs(g, 1, nil)
	many := AllPairs(g, 8, nil)
	if one.Pairs != many.Pairs {
		t.Errorf("pairs differ by thread count: %d vs %d", one.Pairs, many.Pairs)
	}
}

// TestOutputExceedsInput reproduces the Figure 10 observation: the
// all-pairs output dwarfs the input graph.
func TestOutputExceedsInput(t *testing.T) {
	cfg := graph.DefaultRMAT(12, 1)
	cfg.Undirected = true
	g := graph.RMAT(cfg)
	st := AllPairs(g, 0, nil)
	if int64(st.OutputBytes) <= int64(st.InputBytes()) {
		t.Errorf("output %v not larger than input %v", st.OutputBytes, st.InputBytes())
	}
	if st.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestPanicsOnRectangular(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rectangular matrix did not panic")
		}
	}()
	coo := &graph.COO{Rows: 2, Cols: 3}
	coo.Append(0, 2, 1)
	AllPairs(graph.FromCOO(coo), 1, nil)
}

func TestExactDisjoint(t *testing.T) {
	g := path(4)
	if Exact(g, 0, 1) != 0 {
		t.Error("adjacent path vertices should have zero similarity")
	}
}

// Exact computes J(i,j) for one pair by sorted-list intersection — the
// oracle the tests validate AllPairs against.
func Exact(g *graph.CSR, i, j int) float64 {
	a, _ := g.Row(i)
	b, _ := g.Row(j)
	var inter int
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			inter++
			x++
			y++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
