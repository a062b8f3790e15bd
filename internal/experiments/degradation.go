package experiments

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/smt"
)

// DegradationSuite returns the fault-injection experiments: bandwidth-
// vs-fault curves for RAS-degraded machine variants, each derived from
// the healthy machine through internal/fault. They are deliberately
// not part of the paper registry (All) — a degraded machine fails the
// paper's healthy-system checks by construction — and run via
// power8.RunSuite or `p8repro -faults`.
func DegradationSuite() []Experiment {
	return []Experiment{
		{ID: "deg-lanes", Title: "Degraded fabric: X/A-bus lane-sparing sweep", Run: runDegLanes},
		{ID: "deg-cores", Title: "Degraded chips: guarded-core sweep (chip 0)", Run: runDegCores},
		{ID: "deg-channels", Title: "Degraded memory: lost-channel sweep (chip 0)", Run: runDegChannels},
		{ID: "deg-plan", Title: "Degraded machine: full fault plan vs healthy", Run: runDegPlan},
	}
}

// derive applies a single-event plan to the context's machine spec.
func derive(ctx *Context, name string, e fault.Event) *machine.Machine {
	p := &fault.Plan{Name: name, Events: []fault.Event{e}}
	p.Publish(ctx.Obs)
	return ctx.Derive(p)
}

// checkCurve records that a bandwidth-vs-fault curve starts at the
// healthy figure and never recovers as faults accumulate.
func checkCurve(r *Report, name string, healthy float64, curve []float64) {
	r.CheckMin(name+": healthy point matches baseline", 1e-9-abs(curve[0]-healthy), 0)
	for i := 1; i < len(curve); i++ {
		r.CheckMin(fmt.Sprintf("%s: step %d does not recover bandwidth", name, i),
			curve[i-1]-curve[i], 0)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// runDegLanes sweeps lane sparing on one X-bus (chips 0-1) and one
// bonded A-bus (chips 0-4) and reports the pair and system bandwidth
// against the healthy baseline.
func runDegLanes(ctx *Context) *Report {
	r := newReport("deg-lanes", "Degraded fabric: X/A-bus lane-sparing sweep")
	spec := ctx.Machine.Spec
	healthy := ctx.Machine

	r.Printf("%-28s %14s %14s", "fault", "pair GB/s", "all-to-all GB/s")
	xFactors := []float64{1, 0.75, 0.5, 0.25}
	var xPair, xA2A []float64
	for _, f := range xFactors {
		m := healthy
		if f < 1 {
			m = derive(ctx, fmt.Sprintf("xlane-%g", f), fault.Event{Kind: fault.SpareXLanes, A: 0, B: 1, Factor: f})
		}
		pair := m.Net.PairBandwidth(0, 1, false).GBps()
		a2a := m.Net.AllToAll().GBps()
		xPair, xA2A = append(xPair, pair), append(xA2A, a2a)
		r.Printf("%-28s %14.1f %14.1f", fmt.Sprintf("X-bus 0<->1 at %3.0f%%", 100*f), pair, a2a)
	}
	checkCurve(r, "X pair bandwidth", healthy.Net.PairBandwidth(0, 1, false).GBps(), xPair)
	checkCurve(r, "X all-to-all", healthy.Net.AllToAll().GBps(), xA2A)

	link, ok := spec.Topology.LinkBetween(0, 4)
	if !ok {
		r.Note("no A-bus between chips 0 and 4 on this topology; A sweep skipped")
		return r
	}
	var aPair, aA2A []float64
	for spared := 0; spared < link.Count; spared++ {
		m := healthy
		if spared > 0 {
			f := float64(link.Count-spared) / float64(link.Count)
			m = derive(ctx, fmt.Sprintf("alane-%d", spared), fault.Event{Kind: fault.SpareALanes, A: 0, B: 4, Factor: f})
		}
		pair := m.Net.PairBandwidth(0, 4, false).GBps()
		a2a := m.Net.AllToAll().GBps()
		aPair, aA2A = append(aPair, pair), append(aA2A, a2a)
		r.Printf("%-28s %14.1f %14.1f", fmt.Sprintf("A-bus 0<->4, %d/%d lanes spared", spared, link.Count), pair, a2a)
	}
	checkCurve(r, "A pair bandwidth", healthy.Net.PairBandwidth(0, 4, false).GBps(), aPair)
	checkCurve(r, "A all-to-all", healthy.Net.AllToAll().GBps(), aA2A)
	r.Note("lane sparing derates only the affected bundle; protocol spillover through neighbour chips is untouched")
	return r
}

// runDegCores sweeps guarded cores on chip 0 and reports compute peak,
// re-homed FMA throughput and random-access bandwidth.
func runDegCores(ctx *Context) *Report {
	r := newReport("deg-cores", "Degraded chips: guarded-core sweep (chip 0)")
	spec := ctx.Machine.Spec
	healthy := ctx.Machine
	// Threads that were running on the chip before the guard: the chip
	// fully loaded at SMT4.
	chipThreads := spec.Chip.Cores * 4

	maxGuard := spec.Chip.Cores / 2
	var peaks, fmas, rnds []float64
	r.Printf("%-24s %12s %16s %14s", "guarded cores", "peak GF/s", "chip FMA/cycle", "random GB/s")
	for k := 0; k <= maxGuard; k++ {
		m := healthy
		if k > 0 {
			m = derive(ctx, fmt.Sprintf("guard-%d", k), fault.Event{Kind: fault.GuardCores, Chip: 0, N: k})
		}
		peak := float64(m.Spec.PeakDP()) / 1e9
		fma := smt.RemappedThroughput(m.Spec.Chip, m.Spec.ActiveCores(0), chipThreads, 4)
		rnd := m.RandomAccessBandwidth(8, 4).GBps()
		peaks, fmas, rnds = append(peaks, peak), append(fmas, fma), append(rnds, rnd)
		r.Printf("%-24d %12.0f %16.2f %14.1f", k, peak, fma, rnd)
	}
	checkCurve(r, "peak DP", float64(healthy.Spec.PeakDP())/1e9, peaks)
	checkCurve(r, "re-homed FMA throughput", fmas[0], fmas)
	checkCurve(r, "random-access bandwidth", healthy.RandomAccessBandwidth(8, 4).GBps(), rnds)
	// Guarding k of 8 cores removes exactly k/64 of the system peak.
	lost := (peaks[0] - peaks[len(peaks)-1]) / peaks[0]
	want := float64(maxGuard) / float64(spec.TotalCores())
	r.Checkf("guarded fraction of peak DP removed", lost, want, 0.001)
	r.Note("guarded cores re-home their threads onto chip survivors (higher SMT modes), per POWER8 firmware core guarding")
	return r
}

// runDegChannels sweeps lost memory channels on chip 0 and reports the
// stream bandwidth and the rebalanced interleave weights.
func runDegChannels(ctx *Context) *Report {
	r := newReport("deg-channels", "Degraded memory: lost-channel sweep (chip 0)")
	spec := ctx.Machine.Spec
	healthy := ctx.Machine
	maxLost := spec.Memory.CentaursPerChip / 2

	var streams, rndPeaks []float64
	r.Printf("%-20s %16s %18s %22s", "lost channels", "stream GB/s", "random peak GB/s", "chip0 interleave wt")
	for k := 0; k <= maxLost; k++ {
		m := healthy
		if k > 0 {
			m = derive(ctx, fmt.Sprintf("channel-%d", k), fault.Event{Kind: fault.LoseChannels, Chip: 0, N: k})
		}
		stream := m.Mem.SystemStream(2.0 / 3).GBps()
		rnd := m.Mem.RandomPeakBandwidth().GBps()
		weights := m.Mem.Degradation().InterleaveWeights(spec.Topology.Chips, spec.Memory.CentaursPerChip)
		streams, rndPeaks = append(streams, stream), append(rndPeaks, rnd)
		r.Printf("%-20d %16.1f %18.1f %18d/%d", k, stream, rnd, weights[0], spec.Memory.CentaursPerChip)
	}
	checkCurve(r, "system stream", healthy.Mem.SystemStream(2.0/3).GBps(), streams)
	checkCurve(r, "random peak", healthy.Mem.RandomPeakBandwidth().GBps(), rndPeaks)
	r.Note("placement rebalancing: interleave weights drop with the chip's surviving channel count (memsys.Degradation.InterleaveWeights)")
	return r
}

// runDegPlan applies a whole fault plan (Context.Faults, defaulting to
// the canned "worst-day") and tabulates the degraded machine against
// the healthy baseline.
func runDegPlan(ctx *Context) *Report {
	r := newReport("deg-plan", "Degraded machine: full fault plan vs healthy")
	plan := ctx.Faults
	if plan.Healthy() {
		p, err := fault.Canned("worst-day")
		if err != nil {
			panic(err)
		}
		plan = p
	}
	plan.Publish(ctx.Obs)
	healthy := ctx.Machine
	degraded := ctx.Derive(plan)

	r.Printf("plan %q (%d events):", plan.Name, len(plan.Events))
	for _, line := range plan.Summary() {
		r.Printf("  - %s", line)
	}
	r.Printf("")
	r.Printf("%-34s %14s %14s", "metric", "healthy", "degraded")
	row := func(name string, h, d float64, lowerIsWorse bool) {
		r.Printf("%-34s %14.1f %14.1f", name, h, d)
		if lowerIsWorse {
			r.CheckMin(name+": degraded does not exceed healthy", h-d, 0)
		} else {
			r.CheckMin(name+": degraded not faster than healthy", d-h, 0)
		}
	}
	row("peak DP GFLOP/s", float64(healthy.Spec.PeakDP())/1e9, float64(degraded.Spec.PeakDP())/1e9, true)
	row("system stream GB/s (2:1)", healthy.Mem.SystemStream(2.0/3).GBps(), degraded.Mem.SystemStream(2.0/3).GBps(), true)
	row("all-to-all GB/s", healthy.Net.AllToAll().GBps(), degraded.Net.AllToAll().GBps(), true)
	row("random access GB/s (SMT8 x 4)", healthy.RandomAccessBandwidth(8, 4).GBps(), degraded.RandomAccessBandwidth(8, 4).GBps(), true)
	row("demand latency ns (0 -> 4)", healthy.DemandLatencyNs(0, arch.ChipID(4)), degraded.DemandLatencyNs(0, arch.ChipID(4)), false)

	// The DES cross-check must degrade with the analytic model: both
	// derive their ceilings from the same degraded calibration.
	horizon := 200_000.0
	if ctx.Quick {
		horizon = 50_000.0
	}
	desH := healthy.SimulateRandomAccessSharded(8, 4, horizon, ctx.Shards, ctx.Obs, nil).GBps()
	desD := degraded.SimulateRandomAccessSharded(8, 4, horizon, ctx.Shards, ctx.Obs, nil).GBps()
	row("DES random access GB/s", desH, desD, true)
	r.Note("degraded machine derived through machine.NewDegraded — the healthy Machine is never mutated")
	return r
}
