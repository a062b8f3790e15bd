// Package arch holds the static hardware descriptions used by the machine
// model: POWER7/POWER8 chip specifications (Table I of the paper), the
// Centaur memory-buffer chip, SMP topologies built from X-bus and A-bus
// links (Figure 1), and the IBM Power System E870 configuration evaluated
// in the paper (Table II).
//
// Everything in this package is data: published clock rates, cache
// geometries, link bandwidths and pipeline widths. Behavioural models that
// consume these specs live in internal/cache, internal/fabric,
// internal/memsys, internal/smt and internal/machine.
package arch

import (
	"fmt"

	"repro/internal/units"
)

// WritePolicy describes how a cache level handles stores.
type WritePolicy int

// Write policies present in the POWER8 hierarchy: the L1 is store-through
// (stores update L1 and are forwarded to L2), the L2 is store-in
// (write-back), and the L3 is a victim cache populated by L2 castouts.
const (
	StoreThrough WritePolicy = iota
	StoreIn
	Victim
)

// String implements fmt.Stringer.
func (p WritePolicy) String() string {
	switch p {
	case StoreThrough:
		return "store-through"
	case StoreIn:
		return "store-in"
	case Victim:
		return "victim"
	default:
		return fmt.Sprintf("WritePolicy(%d)", int(p))
	}
}

// CacheGeom is the geometry of one cache level.
type CacheGeom struct {
	Size          units.Bytes
	LineSize      units.Bytes
	Assoc         int
	LatencyCycles int // load-to-use latency for a hit in this level
	Policy        WritePolicy
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeom) Sets() int {
	lines := int(g.Size / g.LineSize)
	if g.Assoc <= 0 || lines%g.Assoc != 0 {
		panic(fmt.Sprintf("arch: cache geometry %v not divisible by associativity %d", g.Size, g.Assoc))
	}
	return lines / g.Assoc
}

// ChipSpec describes one POWER processor chip (a die). The E870 uses
// single-chip modules, so in this reproduction "chip" and "socket"
// coincide; the types still distinguish them so dual-chip-module systems
// can be described.
type ChipSpec struct {
	Name           string
	ClockGHz       float64
	Cores          int
	ThreadsPerCore int

	// Front-end widths per core per cycle (Table I).
	IssueWidth  int
	CommitWidth int
	LoadPorts   int
	StorePorts  int

	// Per-core cache geometry. L3 is the per-core local region of the
	// shared NUCA L3; the chip-level L3 capacity is Cores * L3PerCore.
	L1I, L1D, L2, L3PerCore CacheGeom

	// VSX (SIMD) execution resources per core.
	VSXPipes         int // symmetric FP/VSX pipelines
	VSXLatencyCycles int // FMA result latency
	VSXWidthDP       int // double-precision lanes per pipe
	ArchVSXRegs      int // architected VSX registers per core
	RenameVSXRegs    int // additional rename (non-architected) registers

	// Memory-level parallelism limits.
	LoadMissQueue   int // outstanding demand load misses per core
	PrefetchStreams int // concurrent hardware prefetch streams per core
}

// DPFlopsPerCycle returns the peak double-precision FLOPs one core retires
// per cycle: pipes x DP lanes x 2 (multiply + add of an FMA).
func (c ChipSpec) DPFlopsPerCycle() int {
	return c.VSXPipes * c.VSXWidthDP * 2
}

// CycleNs returns the duration of one clock cycle in nanoseconds.
func (c ChipSpec) CycleNs() float64 { return 1.0 / c.ClockGHz }

// POWER8 returns the POWER8 chip specification used in the paper's E870:
// an 8-core chip at 4.35 GHz. Cache sizes, issue widths and SMT levels
// follow Table I; VSX latency (6 cycles) and the two-level register file
// (128 architected VSX registers) follow Section III-C.
func POWER8(cores int, clockGHz float64) ChipSpec {
	return ChipSpec{
		Name:             "POWER8",
		ClockGHz:         clockGHz,
		Cores:            cores,
		ThreadsPerCore:   8,
		IssueWidth:       10,
		CommitWidth:      8,
		LoadPorts:        4,
		StorePorts:       2,
		L1I:              CacheGeom{Size: 32 * units.KiB, LineSize: LineSize, Assoc: 8, LatencyCycles: 3, Policy: StoreThrough},
		L1D:              CacheGeom{Size: 64 * units.KiB, LineSize: LineSize, Assoc: 8, LatencyCycles: 3, Policy: StoreThrough},
		L2:               CacheGeom{Size: 512 * units.KiB, LineSize: LineSize, Assoc: 8, LatencyCycles: 13, Policy: StoreIn},
		L3PerCore:        CacheGeom{Size: 8 * units.MiB, LineSize: LineSize, Assoc: 8, LatencyCycles: 27, Policy: Victim},
		VSXPipes:         2,
		VSXLatencyCycles: 6,
		VSXWidthDP:       2,
		ArchVSXRegs:      128,
		RenameVSXRegs:    106,
		// Effective outstanding demand misses per core, including the
		// prefetch-assisted reload machinery; calibrated so that random
		// access saturates at threads x lists ~= 32 (Section III-C).
		LoadMissQueue:   32,
		PrefetchStreams: 16,
	}
}

// POWER7 returns the predecessor chip for the Table I comparison. Only the
// fields surfaced by Table I are meaningful for POWER7 in this repo.
func POWER7(cores int, clockGHz float64) ChipSpec {
	return ChipSpec{
		Name:             "POWER7",
		ClockGHz:         clockGHz,
		Cores:            cores,
		ThreadsPerCore:   4,
		IssueWidth:       8,
		CommitWidth:      6,
		LoadPorts:        2,
		StorePorts:       2,
		L1I:              CacheGeom{Size: 32 * units.KiB, LineSize: LineSize, Assoc: 4, LatencyCycles: 3, Policy: StoreThrough},
		L1D:              CacheGeom{Size: 32 * units.KiB, LineSize: LineSize, Assoc: 8, LatencyCycles: 3, Policy: StoreThrough},
		L2:               CacheGeom{Size: 256 * units.KiB, LineSize: LineSize, Assoc: 8, LatencyCycles: 13, Policy: StoreIn},
		L3PerCore:        CacheGeom{Size: 4 * units.MiB, LineSize: LineSize, Assoc: 8, LatencyCycles: 27, Policy: Victim},
		VSXPipes:         2,
		VSXLatencyCycles: 6,
		VSXWidthDP:       2,
		ArchVSXRegs:      64,
		RenameVSXRegs:    80,
		LoadMissQueue:    8,
		PrefetchStreams:  12,
	}
}

// LineSize is the cache line size, constant across all four POWER8 cache
// levels (Section II-A).
const LineSize = 128 * units.Bytes(1)
