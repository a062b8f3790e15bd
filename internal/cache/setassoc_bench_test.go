package cache

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/units"
)

// BenchmarkSetAssocMiss measures the steady-state miss of a full set in
// the E870 per-chip L4 directory (8 Centaurs x 16 MiB, 128-byte lines,
// 16 ways): every op probes all 16 ways, evicts the LRU line and moves
// the new one to the front, which is the DRAM-bound Figure 2 chase's
// per-access cost at that level. Sets are visited in a scattered order
// so the host sees the directory's real footprint. Must stay at 0
// allocs/op.
func BenchmarkSetAssocMiss(b *testing.B) {
	c := New(arch.CacheGeom{Size: 128 * units.MiB, LineSize: 128, Assoc: 16})
	sets, ways := uint64(c.Sets()), uint64(c.Ways())
	addr := func(tag, set uint64) uint64 { return (tag*sets + set) * 128 }
	for tag := uint64(0); tag < ways; tag++ {
		for set := uint64(0); set < sets; set++ {
			c.Insert(addr(tag, set))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := uint64(0); i < uint64(b.N); i++ {
		// An odd multiplier permutes the power-of-two set count; each
		// round through the sets uses a tag none of them holds.
		set := (i * 40503) & (sets - 1)
		if hit, _, evicted := c.Access(addr(ways+i/sets, set)); hit || !evicted {
			b.Fatal("expected a full-set miss")
		}
	}
}
