package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	latency := e2eMetric{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	rate := e2eMetric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 100, 60, 140, 100, 90, 110, 80, 120}
	for _, c := range []struct {
		name       string
		m          e2eMetric
		base, head []float64
		want       string
	}{
		{"every head run faster", latency, steady, scale(steady, 0.5), verdictBetter},
		{"slower beyond the bound", latency, steady, scale(steady, 1.2), verdictWorse},
		{"slower within the bound", latency, steady, scale(steady, 1.05), verdictUnchanged},
		{"same runs", latency, steady, steady, verdictUnchanged},
		{"spread wider than the bound", latency, noisy, scale(noisy, 1.3), verdictUnresolved},
		{"noisy base, every head run better", latency, noisy, scale(steady, 0.5), verdictBetter},
		{"throughput dropped beyond the bound", rate, steady, scale(steady, 0.8), verdictWorse},
		{"throughput rose, overlapping runs", rate, steady, []float64{120, 98, 121, 119, 122, 118, 120, 121, 119, 120}, verdictBetter},
		{"one run a side cannot show spread", latency, []float64{100}, []float64{101}, verdictUnresolved},
	} {
		if got := verdict(c.m, c.base, c.head); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
