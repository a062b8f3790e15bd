package experiments

import (
	"repro/internal/arch"
)

func runTable1(ctx *Context) *Report {
	r := newReport("table1", "Table I: POWER7 and POWER8 at a glance")
	p7 := arch.POWER7(8, 3.8)
	p8 := arch.POWER8(12, 4.0)
	r.Printf("%-36s %12s %12s", "", "POWER7", "POWER8")
	r.Printf("%-36s %12d %12d", "Threads/core", p7.ThreadsPerCore, p8.ThreadsPerCore)
	r.Printf("%-36s %12d %12d", "Maximum cores/processor", p7.Cores, p8.Cores)
	r.Printf("%-36s %12v %12v", "L1 instruction cache/core", p7.L1I.Size, p8.L1I.Size)
	r.Printf("%-36s %12v %12v", "L1 data cache/core", p7.L1D.Size, p8.L1D.Size)
	r.Printf("%-36s %12v %12v", "L2 cache/core", p7.L2.Size, p8.L2.Size)
	r.Printf("%-36s %12v %12v", "L3 cache/core", p7.L3PerCore.Size, p8.L3PerCore.Size)
	r.Printf("%-36s %12s %12s", "L4 cache/processor", "N/A", "up to 128 MiB")
	r.Printf("%-36s %12d %12d", "Instruction issue/cycle/core", p7.IssueWidth, p8.IssueWidth)
	r.Printf("%-36s %12d %12d", "Instruction completion/cycle/core", p7.CommitWidth, p8.CommitWidth)
	r.Printf("%-36s %6d ld/%d st %5d ld/%d st", "Load/store operations/cycle",
		p7.LoadPorts, p7.StorePorts, p8.LoadPorts, p8.StorePorts)

	r.Checkf("POWER8 threads/core", float64(p8.ThreadsPerCore), 8, 0)
	r.Checkf("POWER8 L1D KiB", float64(p8.L1D.Size)/1024, 64, 0)
	r.Checkf("POWER8 L2 KiB", float64(p8.L2.Size)/1024, 512, 0)
	r.Checkf("POWER8 L3/core MiB", float64(p8.L3PerCore.Size)/(1<<20), 8, 0)
	r.Checkf("POWER8 issue width", float64(p8.IssueWidth), 10, 0)
	r.Checkf("POWER8 completion width", float64(p8.CommitWidth), 8, 0)
	return r
}

func runTable2(ctx *Context) *Report {
	r := newReport("table2", "Table II: Characteristics of the E870 under evaluation")
	s := ctx.Machine.Spec
	r.Printf("%-34s %s", "System", s.Name)
	r.Printf("%-34s %d", "Sockets (chips)", s.Topology.Chips)
	r.Printf("%-34s %d cores @ %.2f GHz", "Processor", s.Chip.Cores, s.Chip.ClockGHz)
	r.Printf("%-34s %d (%d per core)", "Hardware threads", s.TotalThreads(), s.Chip.ThreadsPerCore)
	r.Printf("%-34s %v", "Memory capacity", s.MemoryCapacity())
	r.Printf("%-34s %v", "Aggregate L4 cache", s.L4Total())
	r.Printf("%-34s %v", "Peak DP throughput", s.PeakDP())
	r.Printf("%-34s %v (read %v + write %v)", "Peak memory bandwidth (2:1)",
		s.PeakMemoryBW(), s.PeakReadBW(), s.PeakWriteBW())
	r.Printf("%-34s %.2f FLOP/byte", "System balance", s.Balance())

	r.Checkf("total cores", float64(s.TotalCores()), 64, 0)
	r.Checkf("clock GHz", s.Chip.ClockGHz, 4.35, 0)
	r.Checkf("peak DP GFLOP/s", s.PeakDP().GFs(), 2227.2, 0.001)
	r.Checkf("peak memory GB/s", s.PeakMemoryBW().GBps(), 1843.2, 0.001)
	r.Checkf("system balance", s.Balance(), 1.2, 0.01)
	return r
}

func runFigure1(ctx *Context) *Report {
	r := newReport("figure1", "Figure 1: E870 topology and link capacities")
	topo := ctx.Machine.Spec.Topology
	r.Printf("%d chips in %d groups of %d", topo.Chips, topo.Groups, topo.ChipsPerGroup)
	var x, a int
	for _, l := range topo.Links() {
		kind := "X-bus"
		if l.Kind == arch.ABus {
			kind = "A-bus"
			a++
		} else {
			x++
		}
		r.Printf("  %-6s chip%d <-> chip%d  %2d lane(s) x %.1f GB/s = %v/direction",
			kind, l.A, l.B, l.Count, l.PerLane.GBps(), l.Capacity())
	}
	r.Checkf("X-bus links", float64(x), 12, 0)
	r.Checkf("A-bus bundles", float64(a), 4, 0)
	r.Checkf("X lane GB/s", arch.XBusLaneGBs, 39.2, 0)
	r.Checkf("A lane GB/s", arch.ABusLaneGBs, 12.8, 0)
	return r
}
