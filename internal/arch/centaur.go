package arch

import "repro/internal/units"

// CentaurSpec describes the Centaur memory-buffer chip. Each Centaur
// contains 16 MiB of eDRAM acting as an L4 cache and the DRAM memory
// controller. The processor connects to each Centaur with two read links
// and one write link, which is why POWER8 memory bandwidth is asymmetric
// and peaks at a 2:1 read:write ratio (Section II-A).
type CentaurSpec struct {
	L4Size    units.Bytes
	MaxDRAM   units.Bytes
	ReadLink  units.Bandwidth // aggregate read bandwidth into the processor
	WriteLink units.Bandwidth // aggregate write bandwidth out of the processor
}

// Centaur returns the published Centaur specification: 16 MiB of eDRAM L4,
// up to 128 GiB of DRAM, 19.2 GB/s read and 9.6 GB/s write.
func Centaur() CentaurSpec {
	return CentaurSpec{
		L4Size:    16 * units.MiB,
		MaxDRAM:   128 * units.GiB,
		ReadLink:  units.GBps(19.2),
		WriteLink: units.GBps(9.6),
	}
}

// MemorySubsystem describes the memory attached to one processor chip:
// how many Centaur chips it is wired to and how much DRAM sits behind each.
type MemorySubsystem struct {
	Centaur         CentaurSpec
	CentaursPerChip int
	DRAMPerCentaur  units.Bytes
}

// ReadPeak returns the aggregate peak read bandwidth per chip.
func (m MemorySubsystem) ReadPeak() units.Bandwidth {
	return units.Bandwidth(float64(m.Centaur.ReadLink) * float64(m.CentaursPerChip))
}

// WritePeak returns the aggregate peak write bandwidth per chip.
func (m MemorySubsystem) WritePeak() units.Bandwidth {
	return units.Bandwidth(float64(m.Centaur.WriteLink) * float64(m.CentaursPerChip))
}

// L4PerChip returns the aggregate L4 capacity attached to one chip.
func (m MemorySubsystem) L4PerChip() units.Bytes {
	return units.Bytes(m.CentaursPerChip) * m.Centaur.L4Size
}

// DRAMPerChip returns the DRAM capacity attached to one chip.
func (m MemorySubsystem) DRAMPerChip() units.Bytes {
	return units.Bytes(m.CentaursPerChip) * m.DRAMPerCentaur
}
