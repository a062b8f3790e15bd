// Package cache implements the set-associative cache structures the
// machine model composes into the POWER8 four-level hierarchy: a generic
// LRU set-associative array, plus the Hierarchy type that wires together
// the store-through L1, store-in L2, NUCA victim L3 and the memory-side
// Centaur L4 (Section II-A of the paper).
package cache

import (
	"math/bits"

	"repro/internal/arch"
)

// SetAssoc is a set-associative cache directory with true-LRU replacement.
// It tracks tags only (no data), which is all a performance model needs.
//
// Recency is kept by position, not by timestamps: each set's ways hold
// its lines most recently used first, with empty ways at the tail. A hit
// moves the line to the front and a miss evicts the last way, which is
// exactly the least recently used line. One probe of a set's contiguous
// ways therefore finds both the hit and the victim.
type SetAssoc struct {
	sets      int
	ways      int
	lineShift uint
	setMask   uint64

	// lines[set*ways : (set+1)*ways] holds the set's line numbers
	// (addr >> lineShift) + 1 in recency order; zero means invalid and
	// only ever appears after the set's valid lines.
	lines []uint64

	hits, misses uint64
}

// New builds a cache from a geometry. Size, line size and associativity
// must describe a power-of-two number of sets.
func New(geom arch.CacheGeom) *SetAssoc {
	return NewRaw(geom.Sets(), geom.Assoc, uint(bits.TrailingZeros64(uint64(geom.LineSize))))
}

// NewRaw builds a cache directly from set count, way count and the log2 of
// the indexing granule. Power-of-two set counts index with a mask; other
// counts (e.g. the 7-core victim L3 region) fall back to modulo.
func NewRaw(sets, ways int, lineShift uint) *SetAssoc {
	if sets <= 0 || ways <= 0 {
		panic("cache: sets and ways must be positive")
	}
	c := &SetAssoc{
		sets:      sets,
		ways:      ways,
		lineShift: lineShift,
		lines:     make([]uint64, sets*ways),
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	return c
}

// probe finds addr's set and scans it once. On a hit, way is the way
// holding the line; on a miss, way is where a fill goes: the first empty
// way, or the last (LRU) way of a full set.
func (c *SetAssoc) probe(addr uint64) (set []uint64, line uint64, way int, hit bool) {
	line = addr>>c.lineShift + 1 // +1 so zero means invalid
	var idx uint64
	if c.setMask != 0 || c.sets == 1 {
		idx = (line - 1) & c.setMask
	} else {
		idx = (line - 1) % uint64(c.sets)
	}
	base := int(idx) * c.ways
	set = c.lines[base : base+c.ways]
	for w, l := range set {
		switch l {
		case line:
			return set, line, w, true
		case 0:
			return set, line, w, false
		}
	}
	return set, line, len(set) - 1, false
}

// promote writes line into way and moves it to the front of the set,
// shifting the more recently used ways down one place. Whatever way held
// is overwritten, so on a miss it is the eviction.
func promote(set []uint64, way int, line uint64) {
	copy(set[1:way+1], set[:way])
	set[0] = line
}

// remove drops way from the set, closing the gap so empty ways stay at
// the tail.
func remove(set []uint64, way int) {
	copy(set[way:], set[way+1:])
	set[len(set)-1] = 0
}

// fill promotes line through the way probe chose and reports the line a
// miss evicted from a full set.
func (c *SetAssoc) fill(set []uint64, line uint64, way int, hit bool) (victimAddr uint64, evicted bool) {
	old := set[way]
	promote(set, way, line)
	if hit || old == 0 {
		return 0, false
	}
	return (old - 1) << c.lineShift, true
}

// Contains probes for addr without touching LRU state or counters.
func (c *SetAssoc) Contains(addr uint64) bool {
	_, _, _, hit := c.probe(addr)
	return hit
}

// Insert places addr's line, evicting the LRU way if the set is full.
// It returns the evicted line's address and whether an eviction occurred.
// Inserting a line that is already present refreshes its LRU position.
func (c *SetAssoc) Insert(addr uint64) (victimAddr uint64, evicted bool) {
	return c.fill(c.probe(addr))
}

// Access probes for addr with a single scan of its set, counting a hit
// or a miss. Either way it leaves the line most recently used: a miss
// fills it, evicting the LRU way of a full set, and reports the line
// evicted.
func (c *SetAssoc) Access(addr uint64) (hit bool, victimAddr uint64, evicted bool) {
	set, line, way, hit := c.probe(addr)
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	victimAddr, evicted = c.fill(set, line, way, hit)
	return hit, victimAddr, evicted
}

// Take probes for addr with a single scan of its set, counting a hit or
// a miss, and drops the line on a hit: the victim-cache read that hands
// a line back toward the core.
func (c *SetAssoc) Take(addr uint64) bool {
	set, _, way, hit := c.probe(addr)
	if !hit {
		c.misses++
		return false
	}
	remove(set, way)
	c.hits++
	return true
}

// ResetStats clears hit/miss counters without touching contents.
func (c *SetAssoc) ResetStats() { c.hits, c.misses = 0, 0 }

// Flush empties the cache and clears statistics.
func (c *SetAssoc) Flush() {
	clear(c.lines)
	c.ResetStats()
}
