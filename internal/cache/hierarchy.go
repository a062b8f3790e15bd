package cache

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/units"
)

// Level identifies where in the hierarchy a read was satisfied.
type Level int

// Hierarchy levels in increasing distance from the core. L3Remote is a hit
// in another core's L3 region on the same chip (the NUCA/victim behaviour
// of Section II-A); L4 is the Centaur eDRAM.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelL3Remote
	LevelL4
	LevelDRAM
	numLevels
)

// NumLevels is the number of distinct Level values; Level values are the
// integers [0, NumLevels), so callers can index fixed-size arrays by
// Level instead of paying for a map on hot paths.
const NumLevels = int(numLevels)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelL3Remote:
		return "L3-remote"
	case LevelL4:
		return "L4"
	case LevelDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Hierarchy models the caches one hardware thread sees on a POWER8 chip:
// its core's L1/L2, the core's local 8 MiB L3 region, the remaining cores'
// L3 regions acting as a victim cache, and the chip's Centaur L4. Stores
// are not modelled separately here — the latency experiments in the paper
// are read benchmarks; store bandwidth is handled by the analytic solver.
type Hierarchy struct {
	L1       *SetAssoc
	L2       *SetAssoc
	L3Local  *SetAssoc
	L3Victim *SetAssoc
	L4       *SetAssoc

	// DisableVictim turns off the NUCA lateral-castout behaviour: local
	// L3 evictions are dropped instead of spilling into the other cores'
	// regions. Used by the ablation studies to quantify what the
	// paper's "each L3 also serving requests for other cores" design is
	// worth.
	DisableVictim bool

	counts [numLevels]uint64
}

// NewHierarchy builds the hierarchy for one core of chip, backed by the
// chip-wide victim L3 (the other cores' regions) and the chip's aggregate
// L4 built from centaurs Centaur chips.
func NewHierarchy(chip arch.ChipSpec, centaur arch.CentaurSpec, centaurs int) *Hierarchy {
	victim := chip.L3PerCore
	victim.Size = victim.Size * units.Bytes(chip.Cores-1)
	l4 := arch.CacheGeom{
		Size:     centaur.L4Size * units.Bytes(centaurs),
		LineSize: chip.L3PerCore.LineSize,
		Assoc:    16,
	}
	return &Hierarchy{
		L1:       New(chip.L1D),
		L2:       New(chip.L2),
		L3Local:  New(chip.L3PerCore),
		L3Victim: New(victim),
		L4:       New(l4),
	}
}

// Read walks a demand load through the hierarchy, returning the level that
// supplied the line, and updates contents along the fill path: the line is
// installed in L1 and L2; L2 castouts fall into the local L3; local-L3
// victims spill to the on-chip victim L3; DRAM fills also populate the
// memory-side L4 when l4Homed is true (the L4 caches only the DRAM behind
// this chip's own Centaurs).
//
// Each level's set is probed once. L1, L2 and L4 fill on the probe that
// misses, since nothing else touches that level before its fill; an L3
// hit drops the line from that L3 on the probe that finds it. The L2
// castout waits until the lower levels have been probed, so the local L3
// sees the demand probe before the castout, as a probe-then-fill walk
// would order them.
func (h *Hierarchy) Read(addr uint64, l4Homed bool) Level {
	level := LevelL1
	if hit, _, _ := h.L1.Access(addr); !hit {
		level = LevelL2
		hit, cast, castOut := h.L2.Access(addr)
		if !hit {
			level = h.below(addr, l4Homed)
		}
		if castOut {
			h.castout(cast)
		}
	}
	h.counts[level]++
	return level
}

// below resolves an L2 miss in the L3 regions, the L4 or DRAM.
func (h *Hierarchy) below(addr uint64, l4Homed bool) Level {
	switch {
	case h.L3Local.Take(addr):
		// Victim semantics: a hit promotes the line back toward the core
		// and removes it from L3.
		return LevelL3
	case !h.DisableVictim && h.L3Victim.Take(addr):
		return LevelL3Remote
	case !l4Homed:
		return LevelDRAM
	}
	// Memory-side fill: on a miss the Centaur caches the line it reads
	// from its DRAM.
	if hit, _, _ := h.L4.Access(addr); hit {
		return LevelL4
	}
	return LevelDRAM
}

// castout drops an L2 victim into the local L3, whose own victim spills
// to the other cores' regions.
func (h *Hierarchy) castout(line uint64) {
	if spill, ok := h.L3Local.Insert(line); ok && !h.DisableVictim {
		h.L3Victim.Insert(spill)
	}
}

// Install places a line into L1/L2 without recording a demand read,
// modelling a completed hardware prefetch. Castouts propagate as in Read.
func (h *Hierarchy) Install(addr uint64) {
	h.L1.Insert(addr)
	if cast, ok := h.L2.Insert(addr); ok {
		h.castout(cast)
	}
}

// ContainsAny reports whether any core-side level (L1..victim L3) holds
// the line; the prefetch engine skips lines that are already resident.
func (h *Hierarchy) ContainsAny(addr uint64) bool {
	return h.L1.Contains(addr) || h.L2.Contains(addr) ||
		h.L3Local.Contains(addr) || h.L3Victim.Contains(addr)
}

// LevelCounts returns how many reads each level satisfied.
func (h *Hierarchy) LevelCounts() map[Level]uint64 {
	m := make(map[Level]uint64, int(numLevels))
	for l, n := range h.counts {
		if n > 0 {
			m[Level(l)] = n
		}
	}
	return m
}

// Reads returns the total number of Read calls.
func (h *Hierarchy) Reads() uint64 {
	var total uint64
	for _, n := range h.counts {
		total += n
	}
	return total
}

// Flush empties every level and clears statistics.
func (h *Hierarchy) Flush() {
	h.L1.Flush()
	h.L2.Flush()
	h.L3Local.Flush()
	h.L3Victim.Flush()
	h.L4.Flush()
	h.counts = [numLevels]uint64{}
}
