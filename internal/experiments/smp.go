package experiments

import (
	"fmt"

	"repro/internal/micro"
)

func runTable4(ctx *Context) *Report {
	r := newReport("table4", "Table IV: Memory read access latency and bandwidth between chips")
	rows, agg := micro.TableIV(ctx.Machine)

	paperLat := []float64{123, 125, 133, 213, 235, 237, 243}
	paperPF := []float64{12, 15, 15, 16, 22, 22, 22}
	paperOne := []float64{30, 30, 30, 45, 45, 45, 45}
	paperBi := []float64{53, 53, 53, 87, 82, 82, 82}

	r.Printf("%-16s %14s %14s %14s %14s", "", "lat w/o pf", "lat w/ pf", "one-direction", "bi-direction")
	for i, row := range rows {
		r.Printf("Chip0 <-> Chip%-2d %11.0f ns %11.1f ns %9.0f GB/s %9.0f GB/s",
			row.Dst, row.DemandNs, row.PrefetchedNs, row.OneDirection.GBps(), row.BiDirection.GBps())
		name := fmt.Sprintf("chip0<->chip%d", row.Dst)
		r.Checkf(name+" latency ns", row.DemandNs, paperLat[i], 0.01)
		r.Checkf(name+" prefetched ns", row.PrefetchedNs, paperPF[i], 0.30)
		r.Checkf(name+" one-direction GB/s", row.OneDirection.GBps(), paperOne[i], 0.05)
		r.Checkf(name+" bi-direction GB/s", row.BiDirection.GBps(), paperBi[i], 0.06)
	}
	r.Printf("Chip0 <-> interleaved %6.0f ns %24.0f GB/s", agg.InterleavedLatNs, agg.InterleavedBW.GBps())
	r.Printf("All-to-all interleaved %29.0f GB/s", agg.AllToAll.GBps())
	r.Printf("X-Bus aggregate %36.0f GB/s", agg.XAggregate.GBps())
	r.Printf("A-Bus aggregate %36.0f GB/s", agg.AAggregate.GBps())

	r.Checkf("interleaved latency ns", agg.InterleavedLatNs, 168, 0.06)
	r.Checkf("interleaved bandwidth GB/s", agg.InterleavedBW.GBps(), 69, 0.01)
	r.Checkf("all-to-all GB/s", agg.AllToAll.GBps(), 380, 0.05)
	r.Checkf("X aggregate GB/s", agg.XAggregate.GBps(), 632, 0.02)
	r.Checkf("A aggregate GB/s", agg.AAggregate.GBps(), 206, 0.02)
	// The paper's two qualitative observations.
	r.CheckMin("inter/intra latency ratio (~2x)", rows[4].DemandNs/rows[0].DemandNs, 1.7)
	r.CheckMin("inter-group bandwidth exceeds intra-group", rows[4].OneDirection.GBps()-rows[0].OneDirection.GBps(), 1)
	r.Note("fabric efficiencies calibrated per internal/fabric; latency skews per internal/arch (Table IV anchors)")
	return r
}
