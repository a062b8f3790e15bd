package experiments

import (
	"repro/internal/arch"
	"repro/internal/micro"
	"repro/internal/units"
)

func runFigure2(ctx *Context) *Report {
	r := newReport("figure2", "Figure 2: Observed memory read latency on E870")
	sizes := micro.Figure2Sizes()
	maxAccesses := 2_000_000
	if ctx.Quick {
		sizes = []units.Bytes{
			32 * units.KiB, 256 * units.KiB, 2 * units.MiB, 6 * units.MiB,
			32 * units.MiB, 120 * units.MiB, 384 * units.MiB,
		}
		maxAccesses = 250_000
	}
	curves := micro.LatencyCurves(ctx.Machine, []arch.PageSize{arch.Page64K, arch.Page16M}, sizes, maxAccesses, ctx.Obs, ctx.Budget)
	small, huge := curves[0], curves[1]
	r.Printf("%14s %16s %16s", "working set", "64 KiB pages", "16 MiB pages")
	for i := range small {
		r.Printf("%14v %13.2f ns %13.2f ns", small[i].WorkingSet, small[i].AvgNs, huge[i].AvgNs)
	}
	r.Note("lmbench-style dependent-load chase, hardware prefetch disabled, as in the paper")

	at := func(pts []micro.LatPoint, ws units.Bytes) float64 {
		for _, p := range pts {
			if p.WorkingSet == ws {
				return p.AvgNs
			}
		}
		return -1
	}
	// Plateau checks: L1/L2/L3 cycles, remote L3, L4 benefit, DRAM.
	r.Checkf("L1 plateau ns (32 KiB)", at(small, 32*units.KiB), 0.69, 0.1)
	r.Checkf("L2 plateau ns (256 KiB)", at(small, 256*units.KiB), 3.0, 0.1)
	r.Checkf("L3 plateau ns (2 MiB)", at(small, 2*units.MiB), 6.2, 0.1)
	r.Checkf("remote L3 plateau ns (32 MiB)", at(small, 32*units.MiB), 31, 0.15)
	l4 := at(small, 120*units.MiB)
	dram := at(small, 384*units.MiB)
	r.CheckMin("L4 hit benefit vs DRAM (ns)", dram-l4, 30)
	// Huge-page spike past the 3 MiB ERAT reach and flat DRAM tail.
	r.CheckMin("huge-page ERAT spike at 6 MiB (ns)", at(huge, 6*units.MiB)-at(small, 6*units.MiB), 1)
	r.CheckMin("64K-page TLB-walk penalty at 384 MiB (ns)", at(small, 384*units.MiB)-at(huge, 384*units.MiB), 10)
	return r
}

func runTable3(ctx *Context) *Report {
	r := newReport("table3", "Table III: Observed memory bandwidth vs read:write ratio")
	rows := micro.TableIII(ctx.Machine)
	paper := map[string]float64{
		"Read Only": 1141, "16:1": 1208, "8:1": 1267, "4:1": 1375,
		"2:1": 1472, "1:1": 894, "1:2": 748, "1:4": 658, "Write Only": 589,
	}
	r.Printf("%-12s %16s %12s", "Read:Write", "Bandwidth", "paper")
	for _, row := range rows {
		r.Printf("%-12s %12.0f GB/s %8.0f GB/s", row.Label, row.Bandwidth.GBps(), paper[row.Label])
		r.Checkf("bandwidth "+row.Label+" (GB/s)", row.Bandwidth.GBps(), paper[row.Label], 0.01)
	}
	peakFrac := 0.0
	for _, row := range rows {
		if row.Label == "2:1" {
			peakFrac = row.Bandwidth.GBps() / ctx.Machine.Spec.PeakMemoryBW().GBps()
		}
	}
	r.Checkf("2:1 fraction of spec peak", peakFrac, 0.80, 0.02)
	r.Note("modified STREAM on all 64 cores x SMT-8; efficiency curve calibrated per internal/memsys/efficiency.go")
	return r
}

func runFigure3(ctx *Context) *Report {
	r := newReport("figure3", "Figure 3: Bandwidth scaling (a) one core (b) one chip, 2:1 mix")
	a := micro.Figure3a(ctx.Machine)
	r.Printf("(a) single core:")
	for _, p := range a {
		r.Printf("  %d thread(s): %8.1f GB/s", p.Threads, p.Bandwidth.GBps())
	}
	b := micro.Figure3b(ctx.Machine)
	r.Printf("(b) single chip:")
	for _, p := range b {
		if p.Threads == 1 || p.Threads == 2 || p.Threads == 4 || p.Threads == 8 {
			r.Printf("  %d core(s) x %d thread(s): %8.1f GB/s", p.Cores, p.Threads, p.Bandwidth.GBps())
		}
	}
	var coreMax, chipMax float64
	for _, p := range a {
		if v := p.Bandwidth.GBps(); v > coreMax {
			coreMax = v
		}
	}
	for _, p := range b {
		if v := p.Bandwidth.GBps(); v > chipMax {
			chipMax = v
		}
	}
	r.Checkf("single-core peak GB/s", coreMax, 26, 0.05)
	r.Checkf("single-chip peak GB/s", chipMax, 189, 0.04)
	return r
}
