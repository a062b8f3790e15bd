package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{20, 0.50, true, 10},
		{19, 0.50, false, 0},
		{100, 0.90, true, 90},
		{99, 0.90, false, 0},
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{1100, 0.99, true, 1089},
		{5, 0.50, false, 0},
	} {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, q=%g): err = %v, want ok=%v", c.n, c.q, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median(seq(10)); got != 5.5 {
		t.Errorf("median(1..10) = %g, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{5, 1, 4}, 1, 5},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, %v; want %g, %g", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample must not be reported")
	}
	if s := spread([]float64{1}); !math.IsInf(s, 1) {
		t.Errorf("spread of one sample = %g, want +Inf", s)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	tr := &tracer{}
	add := func(name string, parent int, start, end int64) int {
		tr.spans = append(tr.spans, span{Name: name, ID: len(tr.spans) + 1, Parent: parent, TraceID: 1, StartNs: start, EndNs: end})
		return len(tr.spans)
	}
	root := add("unit", 0, 0, 100)
	a := add("a", root, 10, 40)
	add("a.1", a, 15, 25)
	add("b", root, 30, 60)  // overlaps a by 10: covered once
	add("c", root, 90, 120) // runs past the root: clipped at 100
	self := tr.selfTimes()
	for id, want := range map[int]time.Duration{1: 100 - 60, 2: 30 - 10, 3: 10, 4: 30, 5: 30} {
		if self[id-1] != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, tr.spans[id-1].Name, self[id-1], want)
		}
	}
}
