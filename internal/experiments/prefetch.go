package experiments

import (
	"repro/internal/micro"
	"repro/internal/units"
)

func runFigure6(ctx *Context) *Report {
	r := newReport("figure6", "Figure 6: Latency and bandwidth vs DSCR prefetch depth")
	lines := 1 << 18
	if ctx.Quick {
		lines = 1 << 15
	}
	pts := micro.Figure6(ctx.Machine, lines, ctx.Obs)
	r.Printf("%6s %14s %16s", "DSCR", "latency", "bandwidth")
	for _, p := range pts {
		r.Printf("%6d %11.1f ns %12.0f GB/s", p.DSCR, p.LatencyNs, p.Bandwidth.GBps())
	}
	r.CheckMin("deepest/none latency improvement (x)", pts[0].LatencyNs/pts[6].LatencyNs, 3)
	r.CheckMin("deepest/none bandwidth improvement (x)",
		float64(pts[6].Bandwidth)/float64(pts[0].Bandwidth), 3)
	// Monotonicity over depth.
	mono := 1.0
	for i := 1; i < len(pts); i++ {
		if pts[i].LatencyNs > pts[i-1].LatencyNs+0.5 || pts[i].Bandwidth < pts[i-1].Bandwidth {
			mono = 0
		}
	}
	r.Checkf("monotone in depth (1 = yes)", mono, 1, 0)
	return r
}

func runFigure7(ctx *Context) *Report {
	r := newReport("figure7", "Figure 7: Stride-256 latency with stride-N detection on/off")
	count := 60000
	if ctx.Quick {
		count = 20000
	}
	pts := micro.Figure7(ctx.Machine, count, ctx.Obs)
	r.Printf("%6s %18s %18s", "DSCR", "stride-N disabled", "stride-N enabled")
	byDepth := map[int][2]float64{}
	for _, p := range pts {
		e := byDepth[p.DSCR]
		if p.StrideN {
			e[1] = p.LatencyNs
		} else {
			e[0] = p.LatencyNs
		}
		byDepth[p.DSCR] = e
	}
	for d := 1; d <= 7; d++ {
		r.Printf("%6d %15.1f ns %15.1f ns", d, byDepth[d][0], byDepth[d][1])
	}
	r.Checkf("disabled latency ns (paper ~50)", byDepth[7][0], 50, 0.25)
	r.Checkf("enabled latency at deepest ns (paper ~14)", byDepth[7][1], 14, 0.30)
	r.CheckMin("enable speedup at deepest (x)", byDepth[7][0]/byDepth[7][1], 2.5)
	return r
}

func runFigure8(ctx *Context) *Report {
	r := newReport("figure8", "Figure 8: DCBT benefit for randomly ordered sequential blocks")
	total := 1 << 20
	if ctx.Quick {
		total = 1 << 18
	}
	pts := micro.Figure8(ctx.Machine, nil, total, ctx.Obs)
	r.Printf("%12s %16s %16s %10s", "block size", "w/o DCBT", "with DCBT", "gain")
	var small, large micro.DCBTPoint
	for _, p := range pts {
		r.Printf("%12v %13.0f %% %13.0f %% %9.2fx",
			p.BlockBytes, p.PlainFrac*100, p.HintFrac*100, p.HintFrac/p.PlainFrac)
		if p.BlockBytes == 1*units.KiB {
			small = p
		}
		if p.BlockBytes == 1*units.MiB {
			large = p
		}
	}
	r.CheckMin("DCBT gain on 1 KiB blocks (paper >25%)", small.HintFrac/small.PlainFrac, 1.25)
	r.Checkf("DCBT gain on 1 MiB blocks (negligible)", large.HintFrac/large.PlainFrac, 1.0, 0.05)
	r.Note("scan runs at SMT-2 so the un-hinted path stays below the link ceiling; see micro.Figure8")
	return r
}
