package graph

import "testing"

// BenchmarkRMATDegrees streams a scale-16 Graph500 R-MAT graph (1M
// edges of 16 draws each, plus self-loop redraws) into its degree
// array: the generator behind the Figure 10 Jaccard projection, bound
// by the random draws.
func BenchmarkRMATDegrees(b *testing.B) {
	cfg := DefaultRMAT(16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RMATDegrees(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*cfg.Edges()), "ns/edge")
}
