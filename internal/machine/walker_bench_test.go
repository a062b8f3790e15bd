package machine

// Hot-path benchmarks for the trace-driven walker and the DES bandwidth
// cross-check. Every latency figure in the reproduction funnels through
// Walker.Access, and Figure 4's validation funnels through
// SimulateRandomAccess, so ns/op and allocs/op here bound the whole
// suite's wall-clock. The functions these benchmarks pin carry a
// //p8:hotpath directive (Walker.Access, Walker.schedule, the inflight
// table), so p8lint rejects allocation- and randomness-introducing
// edits before the numbers move.

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/trace"
)

func benchWalk(b *testing.B, gen func() trace.Generator, accesses int) {
	benchWalkObs(b, gen, accesses, nil)
}

func benchWalkObs(b *testing.B, gen func() trace.Generator, accesses int, reg *obs.Registry) {
	b.Helper()
	m := New(arch.E870())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := m.NewWalker(WalkerConfig{Chip: 0, Obs: reg})
		w.Run(gen(), accesses)
	}
	b.ReportMetric(float64(accesses), "accesses/op")
}

// BenchmarkWalkerSequential streams through a sequential trace: the
// prefetch engine runs fully ramped, so every access exercises the
// inflight table (hit + delete + refill).
func BenchmarkWalkerSequential(b *testing.B) {
	benchWalk(b, func() trace.Generator {
		return trace.NewSequential(0, 1<<30/trace.LineSize)
	}, 50000)
}

// BenchmarkWalkerChase pointer-chases a 64 MiB working set: mostly
// DRAM-level demand misses with no prefetch coverage, exercising the
// level-count accounting and cache lookups. The chase's dependence is
// simulated, not paid on the host: its cycle is a precomputed visit
// order, so per-access host time is the translation and cache-directory
// probes. allocs/op counts only the walker and chase construction and
// must not grow with accesses/op.
func BenchmarkWalkerChase(b *testing.B) {
	benchWalk(b, func() trace.Generator {
		return trace.NewChase(0, 64<<20/trace.LineSize, 4, 7)
	}, 50000)
}

// BenchmarkWalkerBlockedRandom runs Figure 8's randomly ordered
// sequential blocks: streams are detected, broken and re-detected, so
// inflight entries routinely go stale before deletion.
func BenchmarkWalkerBlockedRandom(b *testing.B) {
	benchWalk(b, func() trace.Generator {
		return trace.NewBlockedRandom(0, 2048, 32, 11)
	}, 50000)
}

// BenchmarkSimulateRandomAccess runs the Figure 4 DES cross-check at the
// paper's peak operating point.
func BenchmarkSimulateRandomAccess(b *testing.B) {
	m := New(arch.E870())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SimulateRandomAccess(8, 4, 50000)
	}
}

// The *Observed variants run the same workloads with a live registry
// attached, pinning the enabled-instrumentation overhead contract (<3%
// vs the uninstrumented benchmarks above; see DESIGN.md Observability).
// The flush-at-the-end design makes the delta O(1) per Run, so the gap
// should sit inside measurement noise.

// BenchmarkWalkerSequentialObserved is BenchmarkWalkerSequential with
// counters flushed into a registry at the end of every Run.
func BenchmarkWalkerSequentialObserved(b *testing.B) {
	benchWalkObs(b, func() trace.Generator {
		return trace.NewSequential(0, 1<<30/trace.LineSize)
	}, 50000, obs.NewRegistry("bench"))
}

// BenchmarkWalkerChaseObserved is BenchmarkWalkerChase instrumented.
func BenchmarkWalkerChaseObserved(b *testing.B) {
	benchWalkObs(b, func() trace.Generator {
		return trace.NewChase(0, 64<<20/trace.LineSize, 4, 7)
	}, 50000, obs.NewRegistry("bench"))
}

// BenchmarkSimulateRandomAccessObserved runs the sequential sharded DES
// (shards=1, the engine the experiments run) at the same operating
// point, publishing the engine's counters after every simulation; its
// uninstrumented baseline is BenchmarkDESSharded512/shards=1.
func BenchmarkSimulateRandomAccessObserved(b *testing.B) {
	m := New(arch.E870())
	reg := obs.NewRegistry("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SimulateRandomAccessSharded(8, 4, 50000, 1, reg, nil)
	}
}
