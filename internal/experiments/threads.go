package experiments

import (
	"fmt"

	"repro/internal/micro"
	"repro/internal/smt"
)

func runFigure4(ctx *Context) *Report {
	r := newReport("figure4", "Figure 4: Random-access bandwidth vs threads and outstanding requests")
	pts := micro.Figure4(ctx.Machine)
	r.Printf("%8s %8s %14s", "threads", "lists", "bandwidth")
	var peak float64
	for _, p := range pts {
		r.Printf("%8d %8d %10.0f GB/s", p.Threads, p.Streams, p.Bandwidth.GBps())
		if v := p.Bandwidth.GBps(); v > peak {
			peak = v
		}
	}
	readPeak := ctx.Machine.Spec.PeakReadBW().GBps()
	r.Checkf("peak random bandwidth GB/s (almost 500)", peak, 500, 0.05)
	r.Checkf("fraction of peak read (41%)", peak/readPeak, 0.41, 0.05)
	// SMT8 needs only 4 lists; SMT4 needs 8.
	at := func(t, s int) float64 {
		for _, p := range pts {
			if p.Threads == t && p.Streams == s {
				return p.Bandwidth.GBps()
			}
		}
		return -1
	}
	r.CheckMin("SMT8 x 4 lists reaches peak", at(8, 4)/peak, 0.999)
	r.CheckMin("SMT4 x 8 lists reaches peak", at(4, 8)/peak, 0.999)
	r.CheckMin("peak over SMT1 x 1 list (x)", peak/at(1, 1), 5)
	if ctx.Obs != nil {
		// The curve above is analytic; run the DES cross-check at the
		// peak configuration so the appendix shows the event engine's
		// counters (banks, chasers, queue depth, utilization, and the
		// sharded driver's rounds, mailbox traffic and per-shard split).
		horizon := 200_000.0
		if ctx.Quick {
			horizon = 50_000.0
		}
		ctx.Machine.SimulateRandomAccessSharded(8, 4, horizon, ctx.Shards, ctx.Obs, ctx.Budget)
	}
	return r
}

func runFigure5(ctx *Context) *Report {
	r := newReport("figure5", "Figure 5: FMA throughput (fraction of peak)")
	pts := micro.Figure5(ctx.Machine)
	at := func(f, t int) float64 {
		for _, p := range pts {
			if p.FMAs == f && p.Threads == t {
				return p.FractionOfPeak
			}
		}
		return -1
	}
	r.Printf("%6s | threads/core ->", "FMAs")
	for _, f := range []int{1, 2, 4, 6, 8, 12, 16} {
		line := ""
		for t := 1; t <= 8; t++ {
			line += " " + pct(at(f, t))
		}
		r.Printf("%6d |%s", f, line)
	}
	chip := ctx.Machine.Spec.Chip
	r.Checkf("chains needed for peak (2 pipes x 6 cycles)",
		float64(smt.MinChainsForPeak(chip)), 12, 0)
	r.Checkf("12 FMAs x 1 thread", at(12, 1), 1.0, 0.001)
	r.Checkf("6 FMAs x 2 threads", at(6, 2), 1.0, 0.001)
	r.Checkf("3 FMAs x 4 threads", at(3, 4), 1.0, 0.001)
	r.Checkf("12 FMAs x 6 threads (144 regs)", at(12, 6), 128.0/144, 0.001)
	r.CheckMin("even 4 threads beat odd 3 (2 FMAs)", at(2, 4)-at(2, 3), 0.01)
	r.CheckMin("12 FMAs degrade beyond 6 threads", at(12, 6)-at(12, 8), 0.01)
	return r
}

func pct(v float64) string {
	if v < 0 {
		return "   -"
	}
	return fmt.Sprintf("%3.0f%%", v*100)
}
