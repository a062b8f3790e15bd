// Package cache implements the set-associative cache structures the
// machine model composes into the POWER8 four-level hierarchy: a generic
// LRU set-associative array, plus the Hierarchy type that wires together
// the store-through L1, store-in L2, NUCA victim L3 and the memory-side
// Centaur L4 (Section II-A of the paper).
package cache

import (
	"math"
	"math/bits"
	"strconv"

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
//
// Each way is a 32-bit line number, half the width of an address, so the
// largest directories (the 128 MiB L4, the victim L3) take half the host
// cache footprint. That bounds addr >> lineShift to maxLineNumber: 512 GiB
// of simulated address space, less one line, at 128-byte lines. A probe
// past it panics rather than alias two lines.
type SetAssoc struct {
	sets      int
	ways      int
	lineShift uint
	setMask   uint64

	// lines[set*ways : (set+1)*ways] holds the set's line numbers
	// (addr >> lineShift) + 1 in recency order; zero means invalid and
	// only ever appears after the set's valid lines.
	lines []uint32
}

// maxLineNumber is the largest addr >> lineShift a directory holds: line
// numbers are stored plus one in 32 bits, zero meaning invalid.
const maxLineNumber = math.MaxUint32 - 1

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
		lines:     make([]uint32, sets*ways),
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	return c
}

// probe finds the set of line number n (see lineNumber) and scans it
// once. On a hit, way is the way holding the line; on a miss, way is
// where a fill goes: the first empty way, or the last (LRU) way of a full
// set. Taking the checked line number keeps probe a leaf function, free
// of the panic path's call.
func (c *SetAssoc) probe(n uint64) (set []uint32, line uint32, way int, hit bool) {
	line = uint32(n) + 1 // +1 so zero means invalid
	var idx uint64
	if c.setMask != 0 || c.sets == 1 {
		idx = n & c.setMask
	} else {
		idx = n % uint64(c.sets)
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

// lineNumber returns addr >> lineShift, and panics past maxLineNumber
// rather than let two addresses alias one 32-bit way.
func (c *SetAssoc) lineNumber(addr uint64) uint64 {
	n := addr >> c.lineShift
	if n > maxLineNumber {
		panic("cache: address " + strconv.FormatUint(addr, 10) + " is past the directory's 32-bit line numbers")
	}
	return n
}

// promote writes line into way and moves it to the front of the set,
// shifting the more recently used ways down one place. Whatever way held
// is overwritten, so on a miss it is the eviction.
func promote(set []uint32, way int, line uint32) {
	copy(set[1:way+1], set[:way])
	set[0] = line
}

// remove drops way from the set, closing the gap so empty ways stay at
// the tail.
func remove(set []uint32, way int) {
	copy(set[way:], set[way+1:])
	set[len(set)-1] = 0
}

// fill promotes line through the way probe chose and reports the line a
// miss evicted from a full set.
func (c *SetAssoc) fill(set []uint32, line uint32, way int, hit bool) (victimAddr uint64, evicted bool) {
	old := set[way]
	promote(set, way, line)
	if hit || old == 0 {
		return 0, false
	}
	return uint64(old-1) << c.lineShift, true
}

// Contains probes for addr without touching LRU state.
func (c *SetAssoc) Contains(addr uint64) bool {
	_, _, _, hit := c.probe(c.lineNumber(addr))
	return hit
}

// Insert places addr's line, evicting the LRU way if the set is full.
// It returns the evicted line's address and whether an eviction occurred.
// Inserting a line that is already present refreshes its LRU position.
func (c *SetAssoc) Insert(addr uint64) (victimAddr uint64, evicted bool) {
	return c.fill(c.probe(c.lineNumber(addr)))
}

// Access probes for addr with a single scan of its set. Either way it
// leaves the line most recently used: a miss fills it, evicting the LRU
// way of a full set, and reports the line evicted.
func (c *SetAssoc) Access(addr uint64) (hit bool, victimAddr uint64, evicted bool) {
	set, line, way, hit := c.probe(c.lineNumber(addr))
	victimAddr, evicted = c.fill(set, line, way, hit)
	return hit, victimAddr, evicted
}

// Take probes for addr with a single scan of its set and drops the line
// on a hit: the victim-cache read that hands a line back toward the core.
func (c *SetAssoc) Take(addr uint64) bool {
	set, _, way, hit := c.probe(c.lineNumber(addr))
	if hit {
		remove(set, way)
	}
	return hit
}

// Flush empties the cache.
func (c *SetAssoc) Flush() { clear(c.lines) }
