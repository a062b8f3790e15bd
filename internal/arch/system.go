package arch

import (
	"repro/internal/units"
)

// UncoreLatency holds the nanosecond-scale latency components of the
// machine that are not expressed as core cycles: the on-chip NUCA L3
// remote regions, the Centaur L4, local DRAM, SMP hop costs and address
// translation penalties. The E870 values are derived from the paper's
// measurements (Figure 2 and Table IV): local DRAM latency anchors the
// Figure 2 memory plateau, the per-hop costs reproduce the Table IV
// latency column, and the layout skews model the small per-position
// differences the paper attributes to chip layout.
type UncoreLatency struct {
	L3RemoteNs  float64 // hit in another core's L3 region on the same chip
	L4HitNs     float64 // hit in the Centaur eDRAM L4
	LocalDRAMNs float64 // local DRAM, dependent load, no prefetch

	// DRAMStridedNs is the local DRAM latency for an access whose address
	// was predictable from the previous stride: the Centaur scheduler
	// overlaps the row activation, which is why the paper's stride-256
	// stream reads in ~50 ns even with stream detection disabled
	// (Figure 7).
	DRAMStridedNs float64

	XHopNs float64 // added by one X-bus hop
	AHopNs float64 // added by one A-bus hop

	// IntraGroupSkewNs is indexed by the position distance (1..3) between
	// two chips in the same group and models layout-dependent latency.
	IntraGroupSkewNs [4]float64
	// InterGroupSkewNs is indexed by the position distance (0..3); distance
	// zero is the directly A-bus-paired chip.
	InterGroupSkewNs [4]float64

	ERATMissNs float64 // first-level translation (ERAT) miss penalty
	// ERATMissHugeNs is the ERAT miss penalty under huge pages: the ERAT
	// caches translations at a 64 KiB granule, so a huge-page entry is
	// fragmented and the refill is costlier. This produces the Figure 2
	// spike at the 3 MiB (= ERAT reach) working set on the huge-page
	// curve only.
	ERATMissHugeNs float64
	TLBMissNs      float64 // TLB miss: hardware table walk penalty

	// PrefetchResidue is the fraction of the demand latency still visible
	// when the hardware stream prefetcher is fully ramped (Table IV,
	// "latency w/ prefetching" is roughly a tenth of the demand latency).
	PrefetchResidue float64
	// MinPrefetchedNs floors the steady-state prefetched per-line latency
	// at the line transfer plus detect cost.
	MinPrefetchedNs float64
}

// TranslationSpec describes the address-translation hardware. The ERAT
// (first-level translation cache) holds translations at a fixed 64 KiB
// granule regardless of page size, which is what produces the Figure 2
// spike at a 3 MiB working set for 16 MiB huge pages: 48 entries x 64 KiB
// = 3 MiB of ERAT reach, beyond which every line in a fresh granule pays
// the ERAT miss, while the TLB (whose reach with huge pages is enormous)
// still hits.
type TranslationSpec struct {
	ERATEntries int
	ERATGranule units.Bytes
	TLBEntries  int
}

// PageSize is a supported virtual-memory page size.
type PageSize units.Bytes

// The two page sizes the paper measures (Figure 2).
const (
	Page64K PageSize = PageSize(64 * units.KiB)
	Page16M PageSize = PageSize(16 * units.MiB)
)

// SystemSpec is a complete SMP system description: the chip, the memory
// subsystem behind each chip, the interconnect topology, and the latency
// and translation parameters the simulator consumes.
type SystemSpec struct {
	Name     string
	Chip     ChipSpec
	Memory   MemorySubsystem
	Topology *Topology
	Latency  UncoreLatency
	Xlate    TranslationSpec
	// Guard lists firmware-deconfigured resources on a degraded
	// machine; nil (the healthy default) guards nothing. Derived specs
	// set it via internal/fault; it is never mutated afterwards.
	Guard *GuardMap
}

// TotalCores returns the number of active cores in the system (guarded
// cores excluded).
func (s *SystemSpec) TotalCores() int {
	return s.Topology.Chips*s.Chip.Cores - s.Guard.TotalGuardedCores()
}

// ActiveCores returns the number of usable cores on one chip after
// guarding.
func (s *SystemSpec) ActiveCores(c ChipID) int {
	return s.Chip.Cores - s.Guard.GuardedCores(c)
}

// TotalThreads returns the number of hardware threads on active cores.
func (s *SystemSpec) TotalThreads() int { return s.TotalCores() * s.Chip.ThreadsPerCore }

// Clone returns a copy of the spec that can be independently modified
// into a derived (e.g. RAS-degraded) machine description. The topology
// is shared — it is immutable — while the guard map is deep-copied.
func (s *SystemSpec) Clone() *SystemSpec {
	out := *s
	out.Guard = s.Guard.Clone()
	return &out
}

// PeakDP returns the system's peak double-precision throughput over
// its active (non-guarded) cores.
func (s *SystemSpec) PeakDP() units.Rate {
	perCore := s.Chip.ClockGHz * 1e9 * float64(s.Chip.DPFlopsPerCycle())
	return units.Rate(perCore * float64(s.TotalCores()))
}

// PeakReadBW returns the aggregate peak memory read bandwidth.
func (s *SystemSpec) PeakReadBW() units.Bandwidth {
	return units.Bandwidth(float64(s.Memory.ReadPeak()) * float64(s.Topology.Chips))
}

// PeakWriteBW returns the aggregate peak memory write bandwidth.
func (s *SystemSpec) PeakWriteBW() units.Bandwidth {
	return units.Bandwidth(float64(s.Memory.WritePeak()) * float64(s.Topology.Chips))
}

// PeakMemoryBW returns the aggregate sustainable memory bandwidth at the
// optimal 2:1 read:write mix.
func (s *SystemSpec) PeakMemoryBW() units.Bandwidth {
	return units.Bandwidth(float64(s.PeakReadBW()) + float64(s.PeakWriteBW()))
}

// MemoryCapacity returns the total DRAM capacity.
func (s *SystemSpec) MemoryCapacity() units.Bytes {
	return units.Bytes(s.Topology.Chips) * s.Memory.DRAMPerChip()
}

// L4Total returns the total L4 capacity.
func (s *SystemSpec) L4Total() units.Bytes {
	return units.Bytes(s.Topology.Chips) * s.Memory.L4PerChip()
}

// Balance returns the system balance: peak compute divided by peak
// sustainable memory bandwidth (FLOPs per byte), the quantity Section IV
// reports as 1.2 for the E870.
func (s *SystemSpec) Balance() float64 {
	return float64(s.PeakDP()) / float64(s.PeakMemoryBW())
}

// E870 returns the specification of the system evaluated in the paper:
// an IBM Power System E870 with eight single-chip 8-core POWER8 sockets
// at 4.35 GHz, two 4-chip groups, eight Centaur chips per socket and
// 512 GiB of DRAM per socket (4 TiB total).
func E870() *SystemSpec {
	return &SystemSpec{
		Name: "IBM Power System E870",
		Chip: POWER8(8, 4.35),
		Memory: MemorySubsystem{
			Centaur:         Centaur(),
			CentaursPerChip: 8,
			DRAMPerCentaur:  64 * units.GiB,
		},
		Topology: NewGroupedTopology(2, 4, 3),
		Latency: UncoreLatency{
			L3RemoteNs:    28,
			L4HitNs:       62,
			LocalDRAMNs:   95,
			DRAMStridedNs: 50,
			XHopNs:        28,
			AHopNs:        118,
			// Table IV: chips 1,2,3 measure 123/125/133 ns; chips 4..7
			// measure 213/235/237/243 ns. Base model: 95 + hops; skews
			// absorb the layout-dependent residue.
			IntraGroupSkewNs: [4]float64{0, 0, 2, 10},
			InterGroupSkewNs: [4]float64{0, -6, -4, 2},
			ERATMissNs:       5,
			ERATMissHugeNs:   12,
			TLBMissNs:        40,
			PrefetchResidue:  0.095,
			MinPrefetchedNs:  11.5,
		},
		Xlate: TranslationSpec{
			ERATEntries: 48,
			ERATGranule: 64 * units.KiB,
			TLBEntries:  2048,
		},
	}
}

// MaxPOWER8SMP returns the largest configuration Section II-B describes:
// 16 sockets of 12-core chips at 4 GHz with eight Centaurs each, good for
// 6,144 GFLOP/s, 3,686 GB/s and 16 TB of memory. Latency and translation
// parameters reuse the E870 profile.
func MaxPOWER8SMP() *SystemSpec {
	s := E870()
	s.Name = "POWER8 192-way SMP (maximum configuration)"
	s.Chip = POWER8(12, 4.0)
	s.Memory.DRAMPerCentaur = 128 * units.GiB
	s.Topology = NewGroupedTopology(4, 4, 1)
	return s
}
