package power8

// Cold-vs-warm benchmarks for the content-addressed result cache.
// "cold" pays one full quick-mode suite per iteration (fresh cache),
// "warm" serves the same 18 experiments from a primed cache, and
// "nocache" is the regression guard: RunSuite with the cache disabled
// must cost what it did before the cache existed (compare against
// BENCH_6). Run with -benchtime=1x for the cold case — each iteration
// is a whole suite:
//
//	go test -bench=BenchmarkSuiteColdVsWarm -benchtime=1x

import "testing"

func BenchmarkSuiteColdVsWarm(b *testing.B) {
	m := NewE870()
	suite := Experiments()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache, err := NewSuiteCache(CacheOptions{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			RunSuite(suite, m, RunOptions{Quick: true, Cache: cache})
		}
	})

	b.Run("warm", func(b *testing.B) {
		cache, err := NewSuiteCache(CacheOptions{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		RunSuite(suite, m, RunOptions{Quick: true, Cache: cache}) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reps := RunSuite(suite, m, RunOptions{Quick: true, Cache: cache})
			if len(reps) != len(suite) {
				b.Fatalf("warm run returned %d reports", len(reps))
			}
		}
	})

	b.Run("nocache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RunSuite(suite, m, RunOptions{Quick: true})
		}
	})
}
