package canon

import (
	"repro/internal/arch"
)

// AppendSpec encodes a spec into an ongoing hash (for composite keys).
func AppendSpec(h *Hasher, s *arch.SystemSpec) {
	h.Section("spec")
	h.Str(s.Name)
	appendChip(h, s.Chip)
	appendMemory(h, s.Memory)
	appendTopology(h, s.Topology)
	appendLatency(h, s.Latency)
	appendXlate(h, s.Xlate)
	appendGuard(h, s)
}

func appendChip(h *Hasher, c arch.ChipSpec) {
	h.Section("chip")
	h.Str(c.Name)
	h.F64(c.ClockGHz)
	h.Int(c.Cores)
	h.Int(c.ThreadsPerCore)
	h.Int(c.IssueWidth)
	h.Int(c.CommitWidth)
	h.Int(c.LoadPorts)
	h.Int(c.StorePorts)
	appendCache(h, c.L1I)
	appendCache(h, c.L1D)
	appendCache(h, c.L2)
	appendCache(h, c.L3PerCore)
	h.Int(c.VSXPipes)
	h.Int(c.VSXLatencyCycles)
	h.Int(c.VSXWidthDP)
	h.Int(c.ArchVSXRegs)
	h.Int(c.RenameVSXRegs)
	h.Int(c.LoadMissQueue)
	h.Int(c.PrefetchStreams)
}

func appendCache(h *Hasher, g arch.CacheGeom) {
	h.Section("cache")
	h.I64(int64(g.Size))
	h.I64(int64(g.LineSize))
	h.Int(g.Assoc)
	h.Int(g.LatencyCycles)
	h.Int(int(g.Policy))
}

func appendMemory(h *Hasher, m arch.MemorySubsystem) {
	h.Section("memory")
	h.I64(int64(m.Centaur.L4Size))
	h.I64(int64(m.Centaur.MaxDRAM))
	h.F64(float64(m.Centaur.ReadLink))
	h.F64(float64(m.Centaur.WriteLink))
	h.Int(m.CentaursPerChip)
	h.I64(int64(m.DRAMPerCentaur))
}

// appendTopology encodes the wiring link by link. Links() returns the
// construction order, which NewGroupedTopology fixes deterministically,
// so no sorting is needed — and must not be added, or fingerprints
// would change under a reordering refactor only when the sort differs
// from construction order.
func appendTopology(h *Hasher, t *arch.Topology) {
	h.Section("topology")
	h.Int(t.Chips)
	h.Int(t.Groups)
	h.Int(t.ChipsPerGroup)
	links := t.Links()
	h.Int(len(links))
	for _, l := range links {
		h.Int(int(l.A))
		h.Int(int(l.B))
		h.Int(int(l.Kind))
		h.F64(float64(l.PerLane))
		h.Int(l.Count)
	}
}

func appendLatency(h *Hasher, l arch.UncoreLatency) {
	h.Section("latency")
	h.F64(l.L3RemoteNs)
	h.F64(l.L4HitNs)
	h.F64(l.LocalDRAMNs)
	h.F64(l.DRAMStridedNs)
	h.F64(l.XHopNs)
	h.F64(l.AHopNs)
	h.F64s(l.IntraGroupSkewNs[:])
	h.F64s(l.InterGroupSkewNs[:])
	h.F64(l.ERATMissNs)
	h.F64(l.ERATMissHugeNs)
	h.F64(l.TLBMissNs)
	h.F64(l.PrefetchResidue)
	h.F64(l.MinPrefetchedNs)
}

func appendXlate(h *Hasher, x arch.TranslationSpec) {
	h.Section("xlate")
	h.Int(x.ERATEntries)
	h.I64(int64(x.ERATGranule))
	h.Int(x.TLBEntries)
}

// appendGuard encodes the guard map chip by chip in chip-id order —
// the GuardMap is backed by a Go map, and iterating chips [0, Chips)
// through GuardedCores is the map-free canonical order.
func appendGuard(h *Hasher, s *arch.SystemSpec) {
	h.Section("guard")
	for c := 0; c < s.Topology.Chips; c++ {
		h.Int(s.Guard.GuardedCores(arch.ChipID(c)))
	}
}
