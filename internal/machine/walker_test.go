package machine

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// chaseLatency runs a warmed random chase of `lines` cache lines and
// returns the measured average latency.
func chaseLatency(t *testing.T, m *Machine, lines int, page arch.PageSize, maxMeasured int) float64 {
	t.Helper()
	w := m.NewWalker(WalkerConfig{Page: page, DisablePrefetch: true})
	warm := trace.NewChase(0, lines, 1, 42)
	w.Run(warm, 0)
	measured := trace.NewChase(0, lines, 1, 42)
	res := w.Run(measured, maxMeasured)
	return res.AvgNs()
}

// TestFigure2Plateaus verifies the lmbench-style latency curve: each
// working set lands on its cache level's plateau.
func TestFigure2Plateaus(t *testing.T) {
	m := e870()
	cases := []struct {
		name     string
		kib      int
		min, max float64
	}{
		{"L1", 32, 0.5, 1.0},
		{"L2", 256, 2.5, 3.5},
		{"L3", 3 * 1024, 5.5, 7.0}, // inside the 3 MiB ERAT reach
		{"L3+ERAT", 6 * 1024, 6.0, 9.0},
		{"L3-remote", 32 * 1024, 25, 36},
		{"L4", 120 * 1024, 55, 75},
		{"DRAM", 384 * 1024, 90, 140},
	}
	for _, c := range cases {
		lines := c.kib * 1024 / 128
		got := chaseLatency(t, m, lines, arch.Page64K, 400000)
		if got < c.min || got > c.max {
			t.Errorf("%s (%d KiB): %.2f ns, want [%v, %v]", c.name, c.kib, got, c.min, c.max)
		}
	}
}

// TestFigure2HugePagesFlattenDRAM verifies the blue-curve behaviour: at
// large working sets, 16 MiB pages avoid the TLB-walk penalty that the
// 64 KiB curve pays.
func TestFigure2HugePagesFlattenDRAM(t *testing.T) {
	m := e870()
	lines := 384 * 1024 * 1024 / 128
	small := chaseLatency(t, m, lines, arch.Page64K, 300000)
	huge := chaseLatency(t, m, lines, arch.Page16M, 300000)
	if huge >= small {
		t.Errorf("huge pages (%.1f ns) not below 64K pages (%.1f ns) at 384 MiB", huge, small)
	}
	if small-huge < 10 {
		t.Errorf("TLB-walk gap = %.1f ns, want >10", small-huge)
	}
}

// TestFigure2HugePageSpike verifies the 3 MiB ERAT-reach spike appears on
// the huge-page curve and not on the 64 KiB curve.
func TestFigure2HugePageSpike(t *testing.T) {
	m := e870()
	lines := 6 * 1024 * 1024 / 128 // 6 MiB: past the 3 MiB ERAT reach, inside L3
	small := chaseLatency(t, m, lines, arch.Page64K, 0)
	huge := chaseLatency(t, m, lines, arch.Page16M, 0)
	if huge <= small {
		t.Errorf("no huge-page ERAT spike: huge %.2f ns <= 64K %.2f ns", huge, small)
	}
}

// TestSequentialPrefetchCutsLatency verifies Figure 6's headline: with
// deep prefetching, a sequential scan's average latency collapses toward
// the per-line service floor.
func TestSequentialPrefetchCutsLatency(t *testing.T) {
	m := e870()
	const lines = 1 << 17 // 16 MiB
	run := func(dscr int) float64 {
		w := m.NewWalker(WalkerConfig{Prefetch: prefetch.Config{DSCR: dscr}})
		res := w.Run(trace.NewSequential(0, lines), 0)
		return res.AvgNs()
	}
	none := run(1)
	deepest := run(7)
	if deepest >= none/3 {
		t.Errorf("deepest prefetch %.1f ns vs none %.1f ns: want large reduction", deepest, none)
	}
	// Depth must be monotone (non-increasing latency).
	prev := none
	for dscr := 2; dscr <= 7; dscr++ {
		got := run(dscr)
		if got > prev+0.5 {
			t.Errorf("latency rose from %.2f to %.2f at DSCR=%d", prev, got, dscr)
		}
		prev = got
	}
	// Deepest should approach the calibrated floor.
	floor := m.Spec.Latency.MinPrefetchedNs
	if deepest > floor*1.6 {
		t.Errorf("deepest = %.2f ns, want near floor %.2f", deepest, floor)
	}
}

// TestStrideNStreamDetection reproduces Figure 7: a stride-256 stream
// reads at ~50 ns with detection off and ~14 ns with stride-N enabled at
// the deepest setting.
func TestStrideNStreamDetection(t *testing.T) {
	m := e870()
	const count = 60000
	run := func(strideN bool, dscr int) float64 {
		// Huge pages, as the paper's stride measurements use: 64 KiB
		// pages would bury the stride behind TLB walks.
		w := m.NewWalker(WalkerConfig{
			Page:     arch.Page16M,
			Prefetch: prefetch.Config{DSCR: dscr, StrideN: strideN},
		})
		res := w.Run(trace.NewStrided(0, 256, count), 0)
		return res.AvgNs()
	}
	off := run(false, 7)
	on := run(true, 7)
	if off < 45 || off > 62 {
		t.Errorf("stride-N off: %.1f ns, want ~50", off)
	}
	if on > 20 {
		t.Errorf("stride-N on: %.1f ns, want ~14", on)
	}
	if off/on < 2.5 {
		t.Errorf("stride-N speedup only %.1fx", off/on)
	}
	// Enabled latency improves with depth.
	shallow := run(true, 2)
	if shallow <= on {
		t.Errorf("shallow depth (%.1f) not worse than deepest (%.1f)", shallow, on)
	}
}

// TestDCBTSmallBlocks reproduces Figure 8: DCBT hints speed up randomly
// ordered small sequential blocks by >25%, with negligible effect on
// large blocks.
func TestDCBTSmallBlocks(t *testing.T) {
	m := e870()
	run := func(blockLines int, hint bool) float64 {
		totalLines := 1 << 20 // 128 MiB: well beyond the cache hierarchy
		blocks := totalLines / blockLines
		g := trace.NewBlockedRandom(0, blocks, blockLines, 7)
		w := m.NewWalker(WalkerConfig{})
		for {
			if hint && g.BlockStart() {
				// Peek the next address by cloning position: the next
				// block's base is deterministic from the generator; issue
				// the DCBT for the upcoming block.
				addr, ok := g.Next()
				if !ok {
					break
				}
				w.Hint(addr, blockLines, 1)
				w.Access(addr)
				continue
			}
			addr, ok := g.Next()
			if !ok {
				break
			}
			w.Access(addr)
		}
		return float64(w.n.accesses) * trace.LineSize / (w.totalNs * 1e-9)
	}
	smallPlain := run(8, false)
	smallHint := run(8, true)
	largePlain := run(4096, false)
	largeHint := run(4096, true)
	if gain := smallHint / smallPlain; gain < 1.25 {
		t.Errorf("DCBT gain on 8-line blocks = %.2fx, want > 1.25x", gain)
	}
	if gain := largeHint / largePlain; gain > 1.05 {
		t.Errorf("DCBT gain on 4096-line blocks = %.2fx, want negligible", gain)
	}
}

// TestWalkerRemoteHome verifies that remote-homed memory pays the SMP hop
// in the walker, consistent with the analytic Table IV model.
func TestWalkerRemoteHome(t *testing.T) {
	m := e870()
	const lines = 1 << 16 // 8 MiB footprint, larger than L2, chase defeats L3 partially
	run := func(home arch.ChipID) float64 {
		w := m.NewWalker(WalkerConfig{
			Chip:            0,
			DisablePrefetch: true,
			Home:            func(uint64) arch.ChipID { return home },
		})
		// Working set 512 MiB so DRAM dominates.
		big := 512 * 1024 * 1024 / 128
		warm := trace.NewChase(0, big, 1, 1)
		w.Run(warm, 200000)
		res := w.Run(trace.NewChase(0, big, 1, 2), 200000)
		return res.AvgNs()
	}
	local := run(0)
	intra := run(1)
	inter := run(5)
	if !(local < intra && intra < inter) {
		t.Errorf("latency ordering wrong: local %.0f, intra %.0f, inter %.0f", local, intra, inter)
	}
	if inter-local < 100 {
		t.Errorf("inter-group premium = %.0f ns, want >100", inter-local)
	}
	_ = lines
}

// TestWalkerInterleavedMatchesAnalytic cross-validates the two latency
// paths: a walker chase over page-interleaved memory must land near the
// analytic Table IV interleaved figure.
func TestWalkerInterleavedMatchesAnalytic(t *testing.T) {
	m := e870()
	chips := uint64(m.Spec.Topology.Chips)
	home := func(addr uint64) arch.ChipID { return arch.ChipID(addr / (64 * 1024) % chips) } // 64 KiB pages round-robin
	w := m.NewWalker(WalkerConfig{
		Chip:            0,
		DisablePrefetch: true,
		Home:            home,
	})
	const lines = 512 * 1024 * 1024 / 128 // DRAM-resident working set
	// A cold chase over a far-beyond-cache working set is all DRAM
	// misses, which is exactly what the analytic row models.
	res := w.Run(trace.NewChase(0, lines, 1, 6), 250000)
	analytic := m.InterleavedLatencyNs(0)
	// The walker adds translation costs the analytic row excludes;
	// allow a one-TLB-walk band.
	if res.AvgNs() < analytic || res.AvgNs() > analytic+50 {
		t.Errorf("walker interleaved %.0f ns vs analytic %.0f ns", res.AvgNs(), analytic)
	}
}

// TestWalkerStats verifies the per-source accounting: a cache-sized
// chase is dominated by its expected level, a prefetched scan by
// prefetch hits, and translation misses are counted.
func TestWalkerStats(t *testing.T) {
	m := e870()
	// L2-resident chase: one cold DRAM lap, then two L2 laps.
	w := m.NewWalker(WalkerConfig{DisablePrefetch: true})
	lines := 256 * 1024 / 128
	w.Run(trace.NewChase(0, lines, 3, 1), 0)
	st := w.Stats()
	if st.Accesses != uint64(3*lines) {
		t.Errorf("accesses = %d", st.Accesses)
	}
	if st.Levels[cache.LevelL2] == 0 {
		t.Errorf("no reads served by L2 (counts %v)", st.Levels)
	}
	for l, n := range st.Levels {
		if n > st.Levels[cache.LevelL2] {
			t.Errorf("level %v served %d reads, more than L2 (counts %v)", l, n, st.Levels)
		}
	}
	if st.TLBMisses == 0 {
		t.Error("no TLB misses recorded on a cold walker")
	}

	// Prefetched sequential scan: mostly prefetch hits.
	w2 := m.NewWalker(WalkerConfig{})
	w2.Run(trace.NewSequential(0, 1<<14), 0)
	st2 := w2.Stats()
	if st2.PrefetchHits < st2.Accesses/2 {
		t.Errorf("prefetch hits %d of %d accesses", st2.PrefetchHits, st2.Accesses)
	}
}

// TestWalkResultBandwidth sanity-checks the bandwidth derivation.
func TestWalkResultBandwidth(t *testing.T) {
	r := WalkResult{Accesses: 1000, TotalNs: 1000 * 12.8}
	if got := r.ThreadBandwidth().GBps(); got < 9.9 || got > 10.1 {
		t.Errorf("10 GB/s expected, got %v", got)
	}
	var zero WalkResult
	if zero.AvgNs() != 0 || zero.ThreadBandwidth() != 0 {
		t.Error("zero result should produce zeros")
	}
}

// TestWalkerDefaults checks config defaulting.
func TestWalkerDefaults(t *testing.T) {
	m := e870()
	w := m.NewWalker(WalkerConfig{})
	if w.cfg.Page != arch.Page64K {
		t.Error("page default wrong")
	}
	if w.pf.Config().DSCR != 7 {
		t.Error("prefetch default wrong")
	}
	if w.NowNs() != 0 {
		t.Error("clock not zero at start")
	}
	w.Access(0)
	if w.NowNs() <= 0 {
		t.Error("clock did not advance")
	}
	if w.Hierarchy() == nil || w.Prefetcher() == nil {
		t.Error("accessors nil")
	}
}

// WalkerStats is the per-source breakdown of a walker's accesses.
type WalkerStats struct {
	Accesses     uint64
	PrefetchHits uint64 // satisfied by a completed hardware prefetch
	Levels       map[cache.Level]uint64
	ERATMisses   uint64
	TLBMisses    uint64
}

// Stats returns the breakdown of everything this walker has simulated.
func (w *Walker) Stats() WalkerStats {
	levels := make(map[cache.Level]uint64, cache.NumLevels)
	for l, n := range w.n.levelCounts {
		if n > 0 {
			levels[cache.Level(l)] = n
		}
	}
	return WalkerStats{
		Accesses:     w.n.accesses,
		PrefetchHits: w.n.prefetchHits,
		Levels:       levels,
		ERATMisses:   w.n.eratMisses,
		TLBMisses:    w.n.tlbMisses,
	}
}

// Prefetcher exposes the walker's prefetch engine.
func (w *Walker) Prefetcher() *prefetch.Engine { return w.pf }

// NowNs returns the walker's simulated clock.
func (w *Walker) NowNs() float64 { return w.nowNs }
